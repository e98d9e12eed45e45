/**
 * @file
 * The ELF coupled predictor bank (paper Section IV-C1): a 2K-entry
 * 3-bit bimodal, a 64-entry branch target cache, and a 32-entry RAS —
 * under 2KB of total storage — plus the CoupledPolicy implementations
 * for each ELF variant and for the NoDCF baseline.
 */

#ifndef ELFSIM_CORE_COUPLED_PREDICTORS_HH
#define ELFSIM_CORE_COUPLED_PREDICTORS_HH

#include "bpred/bimodal.hh"
#include "bpred/btc.hh"
#include "bpred/checkpoint.hh"
#include "bpred/predictor_bank.hh"
#include "bpred/ras.hh"
#include "core/variant.hh"
#include "frontend/coupled.hh"

namespace elfsim {

/** Sizes of the coupled structures (paper Table II). */
struct CoupledPredictorParams
{
    BimodalParams bimodal{2048, 3};
    BtcParams btc{64, 12};
    unsigned rasEntries = 32;
};

/** The coupled predictor storage. */
class CoupledPredictors
{
  public:
    explicit CoupledPredictors(const CoupledPredictorParams &params = {});

    Bimodal &bimodal() { return bimodalPred; }
    BranchTargetCache &btc() { return btcPred; }
    ReturnAddressStack &ras() { return rasStack; }

    /**
     * Train at commit. Per the paper, the bimodal and BTC are only
     * trained on branches that were fetched in coupled mode; the RAS
     * carries no commit-time state.
     */
    void trainCommit(Addr pc, BranchKind kind, bool taken, Addr target,
                     FetchMode mode);

    /**
     * Restore the coupled RAS after a flush. Functionally the coupled
     * RAS mirrors the decoupled speculative RAS (both track the same
     * call stream), so it is rebuilt from it — the equivalent of the
     * paper's "restore the coupled top-of-stack pointer using the
     * decoupled checkpoint information".
     */
    void syncRasFrom(const ReturnAddressStack &other) { rasStack = other; }

    /** Total storage in bytes (< 2KB; Table II reporting). */
    double storageBytes() const;

    /** Checkpoint all coupled structures (warm-state checkpoints). */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar(self.bimodalPred, self.btcPred, self.rasStack);
    }

  private:
    Bimodal bimodalPred;
    BranchTargetCache btcPred;
    ReturnAddressStack rasStack;
};

/** Coupled policy for the ELF variants. */
class ElfCoupledPolicy : public CoupledPolicy
{
  public:
    ElfCoupledPolicy(FrontendVariant variant, CoupledPredictors &preds,
                     bool cond_require_saturation = true);

    bool predictCond(DynInst &di) override;
    bool predictIndirect(DynInst &di) override;
    bool predictReturn(DynInst &di) override;
    void onCall(Addr ret_addr) override;

  private:
    FrontendVariant variant;
    CoupledPredictors &preds;
    bool condRequireSaturation;
};

/**
 * Coupled policy for the NoDCF baseline: the full decoupled predictor
 * bank accessed at fetch, with the speculative history advanced here
 * (there is no DCF to do it). Its TAGE/ITTAGE lookups go to the
 * branch's checkpoint payload for commit to train with.
 */
class NoDcfPolicy : public CoupledPolicy
{
  public:
    NoDcfPolicy(PredictorBank &bank, CheckpointQueue &ckpts)
        : bank(bank), ckpts(ckpts)
    {}

    bool predictCond(DynInst &di) override;
    bool predictIndirect(DynInst &di) override;
    bool predictReturn(DynInst &di) override;
    void onCall(Addr ret_addr) override;
    void onUncond(Addr pc) override;
    bool pushesHistory() const override { return true; }
    unsigned extraBubbles(const DynInst &di) const override;

  private:
    PredictorBank &bank;
    CheckpointQueue &ckpts;
    unsigned lastExtra = 0;
};

} // namespace elfsim

#endif // ELFSIM_CORE_COUPLED_PREDICTORS_HH
