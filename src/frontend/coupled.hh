/**
 * @file
 * Coupled fetch engine: the fetcher generates its own PCs, as in a
 * non-decoupled design. Used permanently by the NoDCF configuration
 * and transiently by ELF right after pipeline flushes and misfetch
 * recoveries.
 *
 * Control-flow capability is delegated to a CoupledPolicy:
 *  - NoDCF: the full decoupled predictor bank (TAGE/BTC+ITTAGE/RAS);
 *  - L-ELF: nothing — follows unconditional directs, stalls at any
 *    conditional/indirect decision;
 *  - RET/IND/COND/U-ELF: the small coupled predictors with the
 *    paper's filters (saturated bimodal counter, BTC hit, RAS).
 *
 * A predicted/followed taken branch inserts one bubble (the coupled
 * taken-branch penalty of Section III-B1); policies may add extra
 * bubbles (e.g. the multi-cycle ITTAGE in NoDCF).
 */

#ifndef ELFSIM_FRONTEND_COUPLED_HH
#define ELFSIM_FRONTEND_COUPLED_HH

#include <algorithm>

#include "bpred/checkpoint.hh"
#include "cache/hierarchy.hh"
#include "common/queue.hh"
#include "frontend/fetch.hh"
#include "frontend/pipeline_types.hh"
#include "frontend/supply.hh"

namespace elfsim {

/** Control-flow capability of the coupled fetcher. */
class CoupledPolicy
{
  public:
    virtual ~CoupledPolicy() = default;

    /**
     * Predict the conditional branch @a di (fill hasPrediction,
     * predTaken, predTarget and optionally the TAGE lookup in its
     * checkpoint's payload).
     * @return false if the policy cannot speculate past it (stall).
     */
    virtual bool predictCond(DynInst &di) = 0;

    /** Predict a non-return indirect branch; false = stall. */
    virtual bool predictIndirect(DynInst &di) = 0;

    /** Predict a return; false = stall. */
    virtual bool predictReturn(DynInst &di) = 0;

    /** Observe a call fetched (push the policy's RAS, if any). */
    virtual void onCall(Addr ret_addr) = 0;

    /** Observe a followed plain unconditional direct jump. */
    virtual void onUncond(Addr pc) { (void)pc; }

    /** @return true iff this policy pushes the speculative global
     *  history itself (NoDCF); ELF policies leave history to the
     *  catching-up DCF. */
    virtual bool pushesHistory() const { return false; }

    /** Extra bubbles beyond the 1-cycle taken penalty for @a di. */
    virtual unsigned extraBubbles(const DynInst &di) const
    {
        (void)di;
        return 0;
    }
};

/** Coupled-fetch statistics. */
struct CoupledStats
{
    std::uint64_t insts = 0;
    std::uint64_t wrongPathInsts = 0;
    std::uint64_t controlStalls = 0;   ///< stalled-at-decision events
    std::uint64_t stallsCond = 0;      ///< ... at conditionals
    std::uint64_t stallsReturn = 0;    ///< ... at returns
    std::uint64_t stallsIndirect = 0;  ///< ... at other indirects
    std::uint64_t takenBubbleCycles = 0;
    std::uint64_t icacheStallCycles = 0;

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("insts", self.insts);
        v("wrong_path_insts", self.wrongPathInsts);
        v("control_stalls", self.controlStalls);
        v("stalls_cond", self.stallsCond);
        v("stalls_return", self.stallsReturn);
        v("stalls_indirect", self.stallsIndirect);
        v("taken_bubble_cycles", self.takenBubbleCycles);
        v("icache_stall_cycles", self.icacheStallCycles);
    }
};

/** The coupled fetch engine. */
class CoupledFetchEngine
{
  public:
    CoupledFetchEngine(const FetchParams &params, MemHierarchy &mem,
                       InstSupply &supply, CheckpointQueue &ckpts,
                       CoupledPolicy &policy);

    /** Begin coupled fetching at @a pc. */
    void start(Addr pc, Cycle now);

    /** Leave coupled mode (switch to decoupled). */
    void stop() { fetchPC = invalidAddr; stalledControl = false; }

    /** @return true iff the engine is driving fetch. */
    bool active() const { return fetchPC != invalidAddr; }

    /** @return true iff stalled at an unpredictable decision. */
    bool stalledOnControl() const { return stalledControl; }

    /** Next PC the engine will fetch (invalidAddr when stalled). */
    Addr nextPC() const { return fetchPC; }

    /** Unstall after an execute resteer (resume at @a pc). */
    void resumeAt(Addr pc, Cycle now);

    /**
     * The first cycle from @a now on at which tick() does more than
     * count a stall cycle: @a now itself when it fetches (or misses)
     * now; busyUntil during an I-side fill or a taken-branch bubble;
     * neverCycle while inactive or stalled at a decision.
     */
    Cycle
    nextActive(Cycle now) const
    {
        if (!active() || stalledControl)
            return neverCycle;
        return std::max(now, busyUntil);
    }

    /** Count @a n idle cycles after an idle tick at @a now, as
     *  ticking them would. */
    void
    skipIdle(Cycle now, Cycle n)
    {
        if (active() && !stalledControl && now < busyUntil)
            st.icacheStallCycles += n;
    }

    /**
     * Fetch up to width instructions, appending them to @a out, which
     * must have room for width more.
     * @return instructions fetched (0 when stalled/inactive).
     */
    unsigned tick(Cycle now, BoundedQueue<DynInst> &out);

    const CoupledStats &stats() const { return st; }

  private:
    FetchParams params;
    MemHierarchy &mem;
    InstSupply &supply;
    CheckpointQueue &ckpts;
    CoupledPolicy &policy;

    Addr fetchPC = invalidAddr;
    bool stalledControl = false;
    Cycle busyUntil = 0;
    CoupledStats st;
};

} // namespace elfsim

#endif // ELFSIM_FRONTEND_COUPLED_HH
