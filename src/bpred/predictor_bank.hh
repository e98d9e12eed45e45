/**
 * @file
 * The decoupled fetcher's complete prediction infrastructure bundled
 * behind one interface: TAGE (conditional), L0 BTC + ITTAGE
 * (indirect), and the return address stack, with the
 * speculative/architectural history split used for flush recovery.
 *
 * Usage protocol:
 *  - predict*() reads the speculative state without modifying it;
 *  - specBranch() advances the speculative state when the front-end
 *    processes a branch (with the *predicted* outcome);
 *  - commitBranch() advances the architectural state and trains the
 *    tables with the *resolved* outcome at retire;
 *  - on a flush, the core calls resetSpecToArch() and then replays
 *    specBranch() for every still-in-flight older branch with its
 *    resolved outcome.
 */

#ifndef ELFSIM_BPRED_PREDICTOR_BANK_HH
#define ELFSIM_BPRED_PREDICTOR_BANK_HH

#include "bpred/btc.hh"
#include "bpred/ittage.hh"
#include "bpred/ras.hh"
#include "bpred/tage.hh"
#include "isa/static_inst.hh"

namespace elfsim {

/** Parameters of the decoupled prediction infrastructure. */
struct PredictorBankParams
{
    TageParams tage{};
    IttageParams ittage{};
    BtcParams l0Indirect{};       ///< 64-entry, 12-bit tags, 1 cycle
    unsigned rasEntries = 32;
};

/** Bundles the decoupled predictors. */
class PredictorBank
{
  public:
    explicit PredictorBank(const PredictorBankParams &params = {});

    // --- prediction (no state change) -----------------------------------

    /** Conditional direction (speculative history). */
    TagePrediction predictCond(Addr pc) const { return tagePred.predict(pc); }

    /** L1 indirect target via ITTAGE (3-cycle structure). */
    IttagePrediction
    predictIndirect(Addr pc) const
    {
        return ittagePred.predict(pc);
    }

    /** L0 indirect target via the BTC; invalidAddr on miss. */
    Addr predictIndirectL0(Addr pc) const { return l0Ind.predict(pc); }

    /** Predicted return target (speculative RAS top). */
    Addr peekReturn() const { return specRasStack.top(); }

    // --- speculative state advance ---------------------------------------

    /**
     * Advance the speculative state for a branch the front-end just
     * processed with predicted direction @a taken.
     */
    void specBranch(Addr pc, BranchKind kind, bool taken);

    // --- commit ------------------------------------------------------------

    /**
     * Retire a branch: advance the architectural state and train the
     * tables with the resolved outcome.
     *
     * @param tp The TAGE prediction made at fetch; pass a prediction
     *        with valid == false if none was made (coupled fetch) and
     *        training will use the architectural history instead.
     * @param ip Same for the ITTAGE prediction of indirect branches.
     * @param history_visible Push the branch's bit into the
     *        architectural history. Decoupled front-ends only see
     *        BTB-tracked branches at prediction time, so only those
     *        may contribute history bits — the caller applies the
     *        same visibility filter it applies speculatively.
     *        RAS maintenance and table training are unaffected.
     */
    void commitBranch(Addr pc, BranchKind kind, bool taken, Addr target,
                      const TagePrediction &tp,
                      const IttagePrediction &ip,
                      bool history_visible = true);

    // --- flush recovery ------------------------------------------------

    /** Restore all speculative state from the architectural state. */
    void resetSpecToArch();

    // --- access to members -----------------------------------------------

    Tage &tage() { return tagePred; }
    Ittage &ittage() { return ittagePred; }
    BranchTargetCache &indirectL0() { return l0Ind; }
    ReturnAddressStack &specRas() { return specRasStack; }
    const ReturnAddressStack &archRas() const { return archRasStack; }

    /** Total storage in bytes (Table II reporting). */
    double storageBytes() const;

    /** Checkpoint every predictor's warm state. */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar(self.tagePred, self.ittagePred, self.l0Ind, self.specRasStack,
           self.archRasStack);
    }

  private:
    PredictorBankParams params;
    Tage tagePred;
    Ittage ittagePred;
    BranchTargetCache l0Ind;
    ReturnAddressStack specRasStack;
    ReturnAddressStack archRasStack;
};

} // namespace elfsim

#endif // ELFSIM_BPRED_PREDICTOR_BANK_HH
