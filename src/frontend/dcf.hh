/**
 * @file
 * The Decoupled Fetcher (DCF): the BP1/BP2 address-generation engine
 * of Figure 1, with the bubble timing rules of Figure 2.
 *
 * Each non-stalled cycle it probes the 3-level BTB with the current
 * BPred PC, processes the entry content against the branch
 * predictors, pushes a block of fetch addresses into the FAQ, and
 * advances the BPred PC. Bubbles are inserted per the paper:
 *
 *  - L0 BTB hit: 0 bubbles when the bimodal component agrees with
 *    full TAGE (and for RAS/L0-indirect targets); 1 bubble when the
 *    tagged TAGE components override the bimodal;
 *  - L1 BTB hit: 1 bubble on a predicted-taken branch, 1 bubble when
 *    the entry tracks fewer than 16 instructions and falls through
 *    (the speculative proxy fall-through access was wrong), 0
 *    otherwise;
 *  - L2 BTB hit: as L1 plus 2 extra access cycles;
 *  - L0 indirect (BTC)/RAS target: as a direct taken branch;
 *  - ITTAGE (L1 indirect) target: 3 bubbles;
 *  - full BTB miss: sequential guessing at one block per cycle.
 */

#ifndef ELFSIM_FRONTEND_DCF_HH
#define ELFSIM_FRONTEND_DCF_HH

#include <algorithm>

#include "bpred/predictor_bank.hh"
#include "btb/btb.hh"
#include "frontend/faq.hh"

namespace elfsim {

/** DCF statistics of interest for the experiments. */
struct DcfStats
{
    std::uint64_t blocks = 0;
    std::uint64_t btbMissBlocks = 0;
    std::uint64_t takenBlocks = 0;
    std::uint64_t bubbleCycles = 0;
    std::uint64_t restarts = 0;

    // Bubble breakdown (Figure 2 causes).
    std::uint64_t bubblesBimodalOverride = 0; ///< TAGE != bimodal @L0
    std::uint64_t bubblesBp2Taken = 0;        ///< taken on L1/L2 hit
    std::uint64_t bubblesShortEntry = 0;      ///< proxy f/t wrong
    std::uint64_t bubblesIndirectL1 = 0;      ///< ITTAGE access
    std::uint64_t bubblesAccess = 0;          ///< L2 BTB extra cycles

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("blocks", self.blocks);
        v("btb_miss_blocks", self.btbMissBlocks);
        v("taken_blocks", self.takenBlocks);
        v("bubble_cycles", self.bubbleCycles);
        v("restarts", self.restarts);
        v("bubbles_bimodal_override", self.bubblesBimodalOverride);
        v("bubbles_bp2_taken", self.bubblesBp2Taken);
        v("bubbles_short_entry", self.bubblesShortEntry);
        v("bubbles_indirect_l1", self.bubblesIndirectL1);
        v("bubbles_access", self.bubblesAccess);
    }
};

/** The decoupled address-generation engine. */
class DecoupledFetcher
{
  public:
    DecoupledFetcher(MultiBtb &btb, PredictorBank &bank, Faq &faq);

    /** Run one address-generation cycle.
     *  @return true iff it pushed a block into the FAQ. */
    bool tick(Cycle now);

    /**
     * The first cycle from @a now on at which tick() pushes a block:
     * the end of the bubble countdown (stallUntil), or neverCycle
     * while halted or while the FAQ is full.
     */
    Cycle
    nextActive(Cycle now) const
    {
        if (pc == invalidAddr || faq.full())
            return neverCycle;
        return std::max(now, stallUntil);
    }

    /**
     * Restart BP1 at @a pc (pipeline flush, misfetch recovery, or
     * divergence). The caller is responsible for clearing the FAQ.
     */
    void restart(Addr pc, Cycle now);

    /** Stop generating (used while a variant holds the DCF flushed). */
    void halt() { pc = invalidAddr; }

    /** Current BPred PC (invalidAddr when halted). */
    Addr bpredPC() const { return pc; }

    const DcfStats &stats() const { return st; }

  private:
    /** Build the FAQ entry for a BTB hit; returns bubbles to insert. */
    unsigned processEntry(const BtbLookupResult &res, FaqEntry &out);

    MultiBtb &btb;
    PredictorBank &bank;
    Faq &faq;

    Addr pc = invalidAddr;
    Cycle stallUntil = 0;
    DcfStats st;
};

} // namespace elfsim

#endif // ELFSIM_FRONTEND_DCF_HH
