/**
 * @file
 * Decode stage. Besides handing instructions to the back-end, decode
 * performs misfetch recovery (paper Section III-C): when a branch
 * arrives that the DCF could not predict (BTB miss), decode resteers
 * the front-end using the decoded target (unconditional direct), the
 * RAS (returns, with an explicit stall), the conditional predictor
 * (if it predicts taken), or the indirect target predictor.
 */

#ifndef ELFSIM_FRONTEND_DECODE_HH
#define ELFSIM_FRONTEND_DECODE_HH

#include "bpred/predictor_bank.hh"
#include "common/queue.hh"
#include "frontend/pipeline_types.hh"

namespace elfsim {

/** Observer hook for ELF (decode-side counts and bitvectors). */
class DecodeObserver
{
  public:
    virtual ~DecodeObserver() = default;

    /** Called for every instruction leaving decode, in order. */
    virtual void onDecoded(const DynInst &di) = 0;
};

/** Decode statistics. */
struct DecodeStats
{
    std::uint64_t insts = 0;
    std::uint64_t resteers = 0;         ///< misfetch recoveries
    std::uint64_t resteerUncond = 0;
    std::uint64_t resteerCond = 0;
    std::uint64_t resteerReturn = 0;
    std::uint64_t resteerIndirect = 0;

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("insts", self.insts);
        v("resteers", self.resteers);
        v("resteer_uncond", self.resteerUncond);
        v("resteer_cond", self.resteerCond);
        v("resteer_return", self.resteerReturn);
        v("resteer_indirect", self.resteerIndirect);
    }
};

/** The decode stage. */
class DecodeStage
{
  public:
    DecodeStage(unsigned width, PredictorBank &bank);

    /**
     * Decode, in place, up to width instructions at the front of
     * @a in whose readyAt has passed. They stay in @a in: the caller
     * takes the decoded prefix from its front.
     *
     * If a misfetch recovery is needed, @a resteer is filled (kind
     * DecodeResteer) and decoding stops at the resteering branch;
     * younger instructions are left for the core to squash.
     *
     * @return instructions decoded, i.e. the length of that prefix.
     */
    unsigned tick(Cycle now, BoundedQueue<DynInst> &in,
                  Redirect &resteer);

    /** Attach the ELF observer (may be nullptr). */
    void setObserver(DecodeObserver *obs) { observer = obs; }

    /**
     * Handle an unpredicted branch: predict it with the decoupled
     * predictors and fill @a resteer if the front-end must be
     * redirected. Called from tick() for decoupled-mode misfetches,
     * and by the core as *late* recovery when an ELF
     * resynchronization reveals that a coupled-stalled branch was
     * covered only by a BTB-miss guess block (the baseline would
     * have recovered it at decode).
     * @return true if a resteer was requested.
     */
    bool recoverMisfetch(Cycle now, DynInst &di, Redirect &resteer);

    const DecodeStats &stats() const { return st; }

  private:

    unsigned width;
    PredictorBank &bank;
    DecodeObserver *observer = nullptr;
    DecodeStats st;
};

} // namespace elfsim

#endif // ELFSIM_FRONTEND_DECODE_HH
