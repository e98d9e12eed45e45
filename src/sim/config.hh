/**
 * @file
 * Whole-core configuration (defaults reproduce the paper's Table II
 * baseline) and its report printer.
 */

#ifndef ELFSIM_SIM_CONFIG_HH
#define ELFSIM_SIM_CONFIG_HH

#include <ostream>

#include "backend/backend.hh"
#include "bpred/predictor_bank.hh"
#include "btb/btb.hh"
#include "cache/hierarchy.hh"
#include "core/elf_controller.hh"

namespace elfsim {

/** Full simulator configuration. */
struct SimConfig
{
    FrontendVariant variant = FrontendVariant::Dcf;

    FetchParams fetch{};             ///< 8-wide, FE->DEC = 1
    Cycle bp1ToFe = 3;               ///< BP1/BP2/FAQ depth
    unsigned faqEntries = 32;
    unsigned checkpointEntries = 512;
    unsigned fetchBufferEntries = 24;
    unsigned maxInstPrefetch = 4;

    MemHierarchyParams mem{};
    PredictorBankParams preds{};
    MultiBtbParams btb{};
    BackendParams backend{};
    DivergenceParams divergence{};
    CoupledPredictorParams coupledPreds{};
    PayloadPolicy payloadPolicy = PayloadPolicy::FaqFill;
    bool condElfRequireSaturation = true;

    /**
     * Per-run RNG seed. 0 (the default) keeps the predictors' legacy
     * fixed allocation seeds, so existing single-run results are
     * unchanged. A sweep stamps a deterministic per-job value here
     * (derived from the job's submission index, never from thread
     * identity) so replicated grid cells decorrelate reproducibly.
     */
    std::uint64_t rngSeed = 0;

    /** Derive the front-end controller parameters. */
    ElfControllerParams
    elfParams() const
    {
        ElfControllerParams p;
        p.variant = variant;
        p.fetch = fetch;
        p.bp1ToFe = bp1ToFe;
        p.maxInstPrefetch = maxInstPrefetch;
        p.divergence = divergence;
        p.coupledPreds = coupledPreds;
        p.payloadPolicy = payloadPolicy;
        p.condRequireSaturation = condElfRequireSaturation;
        return p;
    }
};

/** Build a config for a given front-end variant (Table II elsewhere). */
SimConfig makeConfig(FrontendVariant variant);

/**
 * Content hash of every numeric/enum knob in @a cfg (names and other
 * cosmetic strings excluded). Two configs with the same fingerprint
 * build behaviourally identical cores; warm-state checkpoint keys
 * hash it so an artifact can never be restored into a differently
 * configured machine.
 */
std::uint64_t configFingerprint(const SimConfig &cfg);

/** Print the Table II-style configuration report. */
void printConfig(std::ostream &os, const SimConfig &cfg);

} // namespace elfsim

#endif // ELFSIM_SIM_CONFIG_HH
