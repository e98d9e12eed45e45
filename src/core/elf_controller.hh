/**
 * @file
 * The ELastic Fetching controller — the paper's primary contribution.
 *
 * Owns the front-end's two fetch-address engines (decoupled/FAQ and
 * coupled) and arbitrates between them:
 *
 *  - NoDCF: coupled engine only, driven by the full predictor bank;
 *  - DCF:   decoupled engine only (the Table II baseline);
 *  - ELF:   decoupled in steady state; after every pipeline flush or
 *    misfetch recovery the fetcher enters Coupled mode at the correct
 *    PC while the DCF restarts from BP1 behind it, hiding the BP1/
 *    BP2/FAQ pipeline depth. Resynchronization uses the instruction
 *    counts of Section IV-B/Figure 5 (Fetch Coupled Count, Decode
 *    Coupled Count, Decoupled Count); U-ELF additionally runs the
 *    bitvector/target-queue divergence tracking of Section IV-C.
 */

#ifndef ELFSIM_CORE_ELF_CONTROLLER_HH
#define ELFSIM_CORE_ELF_CONTROLLER_HH

#include <memory>
#include <utility>
#include <vector>

#include "common/queue.hh"
#include "core/coupled_predictors.hh"
#include "core/divergence.hh"
#include "core/variant.hh"
#include "frontend/coupled.hh"
#include "frontend/dcf.hh"
#include "frontend/decode.hh"
#include "frontend/fetch.hh"

namespace elfsim {

/** Controller parameters. */
struct ElfControllerParams
{
    FrontendVariant variant = FrontendVariant::Dcf;
    FetchParams fetch{};
    Cycle bp1ToFe = 3;           ///< BP1 -> FE pipeline depth
    unsigned maxInstPrefetch = 4;///< in-flight FAQ-directed prefetches
    DivergenceParams divergence{};
    CoupledPredictorParams coupledPreds{};
    PayloadPolicy payloadPolicy = PayloadPolicy::FaqFill;
    /** COND/U-ELF: require the bimodal counter to be saturated before
     *  speculating past a conditional (the paper's filter). */
    bool condRequireSaturation = true;
};

/** A prediction patch the core must apply to an in-flight inst. */
struct PredPatch
{
    SeqNum seq = 0;
    bool taken = false;
    Addr target = invalidAddr;
    bool clearStall = false;
    /** The DCF covered this branch with a BTB slot and pushed its
     *  speculative-history bit; commit must push the architectural
     *  bit to keep the two streams identical. */
    bool historyPushed = false;
    /** The covering FAQ block was a BTB-miss sequential guess: the
     *  core should run decode-style misfetch recovery instead of
     *  accepting the implicit fall-through. */
    bool fromBtbMiss = false;
    TagePrediction tage{};
    IttagePrediction ittage{};
};

/** ELF statistics (drives Figure 8's coupled-instruction counts). */
struct ElfStats
{
    std::uint64_t coupledCycles = 0;
    std::uint64_t decoupledCycles = 0;
    std::uint64_t coupledPeriods = 0;
    std::uint64_t coupledInsts = 0;    ///< fetched in coupled mode
    std::uint64_t switches = 0;        ///< coupled -> decoupled
    std::uint64_t divergenceFlushes = 0;
    std::uint64_t trustFetcherFlushes = 0;
    std::uint64_t instPrefetches = 0;

    /** Field visitor; the order is the checkpoint's. */
    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("coupled_cycles", self.coupledCycles);
        v("decoupled_cycles", self.decoupledCycles);
        v("coupled_periods", self.coupledPeriods);
        v("coupled_insts", self.coupledInsts);
        v("switches", self.switches);
        v("divergence_flushes", self.divergenceFlushes);
        v("trust_fetcher_flushes", self.trustFetcherFlushes);
        v("inst_prefetches", self.instPrefetches);
    }

    double
    avgCoupledInstsPerPeriod() const
    {
        return coupledPeriods
                   ? double(coupledInsts) / double(coupledPeriods)
                   : 0.0;
    }
};

/** The front-end orchestrator. */
class ElfController : public DecodeObserver
{
  public:
    ElfController(const ElfControllerParams &params, MemHierarchy &mem,
                  InstSupply &supply, Faq &faq, CheckpointQueue &ckpts,
                  PredictorBank &bank, MultiBtb &btb);

    /** BP1 address-generation cycle (no-op for NoDCF).
     *  @return true iff the DCF pushed a block. */
    bool dcfTick(Cycle now);

    /**
     * Fetch cycle: produce instructions, appending them to @a out
     * (room for a fetch width is needed when @a can_fetch), run the
     * resynchronization count rules, and run divergence detection. A
     * divergence flush request is merged into @a redirect.
     * @return true iff anything beyond the per-cycle counters changed:
     * a fetch or an I-cache access, a FAQ block consumed while
     * coupled, a divergence comparison, or the end of a period.
     */
    bool fetchTick(Cycle now, BoundedQueue<DynInst> &out,
                   Redirect &redirect, bool can_fetch = true);

    /** DecodeObserver: decode-side counts/records. */
    void onDecoded(const DynInst &di) override;

    /**
     * The core applied a front-end redirect (flush, decode resteer,
     * or divergence): restart the engines at @a target_pc. Must be
     * called after the FAQ has been cleared and the predictor bank's
     * speculative state restored.
     */
    void applyRedirect(Cycle now, Addr target_pc);

    /** FAQ-directed instruction prefetch on idle L0I cycles.
     *  @return true iff it prefetched or rescanned the FAQ. */
    bool prefetchTick(Cycle now, bool fetch_was_idle);

    /**
     * After a cycle @a now in which fetchTick, dcfTick and
     * prefetchTick (fetch idle) all did nothing: the earliest cycle
     * at which one of them can act on its own, or neverCycle. Its
     * wake sources are the fetching engine's busyUntil or FAQ head,
     * the FAQ head's genCycle + bp1ToFe while coupled, the DCF's
     * bubble countdown, and the oldest in-flight prefetch while
     * that queue is full. @a can_fetch is fetchTick's argument.
     */
    Cycle nextWake(Cycle now, bool can_fetch) const;

    /** Count @a n idle cycles after that idle cycle @a now, as
     *  ticking them would: the ELF mode cycles and the fetching
     *  engine's stall cycles. */
    void skipIdle(Cycle now, Cycle n, bool can_fetch);

    /**
     * Prediction patches for the core to apply, then discard with
     * clearPatches(). The drain is split into a read and a clear (no
     * move-out) so the vector's capacity is reused cycle after cycle
     * instead of reallocated.
     */
    const std::vector<PredPatch> &patches() const { return patchList; }
    void clearPatches() { patchList.clear(); }

    /**
     * History-visibility fixes: (seq, covered) pairs telling the core
     * whether the catching-up DCF actually saw each coupled-fetched
     * branch in a BTB slot. The speculative and architectural history
     * streams must record exactly the same per-instance bits, and
     * only the FAQ knows the truth. Read, then clearVisibilityFixes().
     */
    const std::vector<std::pair<SeqNum, bool>> &
    visibilityFixes() const
    {
        return visFixes;
    }
    void clearVisibilityFixes() { visFixes.clear(); }

    FetchMode mode() const { return curMode; }
    FrontendVariant variant() const { return params.variant; }

    // --- resynchronization counts (Figure 5), for traces/tests -------
    std::uint64_t fetchCoupled() const { return fetchCoupledCount; }
    std::uint64_t decodeCoupled() const { return decodeCoupledCount; }
    std::uint64_t decoupled() const { return decoupledCount; }
    bool drainingCoupled() const { return draining; }

    CoupledPredictors &coupledPredictors() { return coupledPreds; }
    DecoupledFetcher &dcf() { return *dcfEngine; }
    const DecoupledFetcher &dcf() const { return *dcfEngine; }
    const DecoupledFetchEngine &decoupledEngine() const { return *decEng; }
    const CoupledFetchEngine &coupledEngine() const { return *cplEng; }
    const DivergenceTracker &divergence() const { return divTracker; }
    const ElfStats &stats() const { return st; }

    /** Overwrite the cumulative statistics (warm-state restore; the
     *  engines are restarted via applyRedirect at the boundary). */
    void restoreStats(const ElfStats &stats) { st = stats; }

  private:
    /** The engine fetchTick drives this cycle, if any. */
    enum class Fetcher { None, Coupled, Decoupled };
    Fetcher fetcher(bool can_fetch) const;

    bool processFaqWhileCoupled(Cycle now);
    void switchToDecoupled(Cycle now);
    void expandDecoupledRecords(const FaqEntry &e, unsigned first,
                                unsigned count);
    void patchFromFaq(const FaqEntry &e, unsigned offset, SeqNum seq);
    void endPeriodTracking();

    ElfControllerParams params;
    MemHierarchy &mem;
    InstSupply &supply;
    Faq &faq;
    CheckpointQueue &ckpts;
    PredictorBank &bank;

    CoupledPredictors coupledPreds;
    std::unique_ptr<CoupledPolicy> policy;
    std::unique_ptr<DecoupledFetcher> dcfEngine;
    std::unique_ptr<DecoupledFetchEngine> decEng;
    std::unique_ptr<CoupledFetchEngine> cplEng;
    DivergenceTracker divTracker;

    FetchMode curMode;

    // --- resynchronization state (Figure 5) -------------------------
    std::uint64_t fetchCoupledCount = 0;   ///< speculative
    std::uint64_t decodeCoupledCount = 0;  ///< non-speculative
    std::uint64_t decoupledCount = 0;      ///< FAQ coverage
    std::uint64_t coupledFetched = 0;      ///< total this period
    SeqNum periodStartSeq = 1;
    bool draining = false;
    bool drainComplete = false;

    /** Stalled-branch bookkeeping: seq, pc and period position. */
    SeqNum stalledSeq = 0;
    Addr stalledPC = invalidAddr;
    std::uint64_t stalledPos = 0;

    std::vector<PredPatch> patchList;
    std::vector<std::pair<SeqNum, bool>> visFixes;

    /** Scratch for divergence comparison, reused every fetchTick. */
    std::vector<Divergence> adoptScratch;

    /** In-flight FAQ-directed prefetch completion times. */
    BoundedQueue<Cycle> prefetchInflight;
    /** Faq::version() and L0I Cache::residencyVersion() at the last
     *  prefetch scan that found every queued block's line present. */
    std::uint64_t coveredFaqVersion = ~std::uint64_t(0);
    std::uint64_t coveredL0iVersion = ~std::uint64_t(0);

    ElfStats st;
};

} // namespace elfsim

#endif // ELFSIM_CORE_ELF_CONTROLLER_HH
