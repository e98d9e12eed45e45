/**
 * @file
 * Decoupled fetch engine: consumes FAQ blocks, accesses the L0
 * I-cache, and materializes dynamic instructions with their attached
 * predictions.
 *
 * Up to fetchWidth instructions per cycle, from at most two cache
 * lines that must fall in different L0I set interleaves — which is
 * also what permits fetching across a taken branch in a single cycle
 * when the branch and its target lines sit in different banks and the
 * target block is already in the FAQ (paper Section VI-A).
 */

#ifndef ELFSIM_FRONTEND_FETCH_HH
#define ELFSIM_FRONTEND_FETCH_HH

#include <algorithm>

#include "bpred/checkpoint.hh"
#include "cache/hierarchy.hh"
#include "common/queue.hh"
#include "frontend/faq.hh"
#include "frontend/pipeline_types.hh"
#include "frontend/supply.hh"

namespace elfsim {

/** Fetch stage parameters. */
struct FetchParams
{
    unsigned width = 8;          ///< instructions per cycle
    Cycle fetchToDecode = 1;     ///< FE -> DEC latency
};

/** Statistics of the decoupled fetch engine. */
struct FetchStats
{
    std::uint64_t insts = 0;
    std::uint64_t wrongPathInsts = 0;
    std::uint64_t icacheStallCycles = 0;
    std::uint64_t faqEmptyCycles = 0;
    std::uint64_t takenCrossFetches = 0; ///< fetched across a taken
                                         ///< branch in one cycle

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("insts", self.insts);
        v("wrong_path_insts", self.wrongPathInsts);
        v("icache_stall_cycles", self.icacheStallCycles);
        v("faq_empty_cycles", self.faqEmptyCycles);
        v("taken_cross_fetches", self.takenCrossFetches);
    }
};

/** The decoupled (FAQ-driven) fetch engine. */
class DecoupledFetchEngine
{
  public:
    DecoupledFetchEngine(const FetchParams &params, MemHierarchy &mem,
                         InstSupply &supply, Faq &faq,
                         CheckpointQueue &ckpts);

    /**
     * Fetch up to width instructions from the FAQ, appending them to
     * @a out, which must have room for width more.
     * @param now Current cycle.
     * @param faq_ready_cycle BP1->FE latency: a block generated at
     *        cycle c is visible to FE from c + faq_ready_cycle.
     * @return instructions fetched this cycle.
     */
    unsigned tick(Cycle now, Cycle faq_ready_cycle,
                  BoundedQueue<DynInst> &out);

    /** Reset in-entry progress after a redirect/FAQ flush. */
    void redirect(Cycle now);

    /** Instructions already consumed from the current head entry. */
    unsigned headOffset() const { return offsetInEntry; }

    /** @return true iff an I-cache miss is holding fetch. */
    bool stalled(Cycle now) const { return now < busyUntil; }

    /**
     * The first cycle from @a now on at which tick() does more than
     * count a stall cycle: @a now itself when it fetches (or misses)
     * now; busyUntil while an I-side fill holds fetch; otherwise the
     * cycle the FAQ head becomes visible, or neverCycle for an empty
     * FAQ.
     */
    Cycle
    nextActive(Cycle now, Cycle faq_ready_cycle) const
    {
        if (stalled(now))
            return busyUntil;
        if (faq.empty())
            return neverCycle;
        return std::max(now, faq.front().genCycle + faq_ready_cycle);
    }

    /** Count @a n idle cycles after an idle tick at @a now, as
     *  ticking them would. */
    void
    skipIdle(Cycle now, Cycle n)
    {
        if (stalled(now))
            st.icacheStallCycles += n;
        else
            st.faqEmptyCycles += n;
    }

    const FetchStats &stats() const { return st; }

  private:
    FetchParams params;
    MemHierarchy &mem;
    InstSupply &supply;
    Faq &faq;
    CheckpointQueue &ckpts;

    unsigned offsetInEntry = 0;
    Cycle busyUntil = 0;
    FetchStats st;
};

/**
 * Attach the FAQ branch info (the prediction) to a just-materialized
 * instruction and derive its misprediction status. The training
 * payload goes to the branch's checkpoint (DecoupledFetchEngine::tick).
 */
void bindPrediction(DynInst &di, const FaqBranch *fb, bool btb_covered);

} // namespace elfsim

#endif // ELFSIM_FRONTEND_FETCH_HH
