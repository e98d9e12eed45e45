/**
 * @file
 * Non-speculative BTB entry establishment at retire (paper §III-A).
 *
 * The builder follows the committed instruction stream. Each time the
 * stream reaches a fresh region start (the target of a taken branch,
 * or the fall-through of the previous entry), it constructs the entry
 * by walking the *static* code image forward — gated by the dynamic
 * "observed taken before" knowledge that decides which conditionals
 * claim branch slots — and inserts it into the BTB. When a
 * never-taken conditional first retires taken, the covering entry is
 * rebuilt, which naturally shortens/splits it (the paper's
 * amendment/split case).
 */

#ifndef ELFSIM_BTB_BTB_BUILDER_HH
#define ELFSIM_BTB_BTB_BUILDER_HH

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "btb/btb.hh"
#include "workload/program.hh"

namespace elfsim {

/** Entry-establishment counters; the field order is the checkpoint's. */
struct BtbBuilderStats
{
    std::uint64_t establishments = 0; ///< entries established
    std::uint64_t amendments = 0;     ///< rebuilds of the split case

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("establishments", self.establishments);
        v("amendments", self.amendments);
    }
};

/** Builds BTB entries from the retire stream. */
class BtbBuilder
{
  public:
    BtbBuilder(const Program &prog, MultiBtb &btb);

    /**
     * Observe one retired instruction.
     *
     * @param si The retired static instruction.
     * @param taken Resolved direction (false for non-branches).
     * @param next_pc Architectural next PC.
     */
    void retire(const StaticInst &si, bool taken, Addr next_pc);

    /**
     * Observe @a n retired non-branch instructions starting at
     * @a start_pc and advancing sequentially by instBytes — the batch
     * equivalent of n retire() calls with taken=false on a
     * branch-free region. Non-branch retires only ever establish
     * entries (at the very first instruction, or wherever the stream
     * crosses nextEstablishPC), so the batch walks establishment
     * points directly instead of testing every instruction. State
     * after the call is identical to the scalar sequence.
     */
    void retireSequentialRange(Addr start_pc, InstCount n);

    /**
     * Construct the entry starting at @a start_pc from the static
     * image and the observed-taken knowledge (exposed for tests and
     * for ELF's FAQ-block reconstruction).
     */
    BtbEntry buildEntry(Addr start_pc) const;

    /** @return true iff @a pc has ever retired as a taken branch. */
    bool
    observedTaken(Addr pc) const
    {
        return takenBefore.count(pc) != 0;
    }

    const BtbBuilderStats &stats() const { return st; }

    /**
     * Checkpoint the observed-taken set and region-tracking state. The
     * set travels as a sorted list, since unordered_set iteration
     * order is not stable across processes; a load checks the list's
     * length against the bytes left before sizing the set from it.
     */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        if constexpr (Ar::loading) {
            const std::size_t n = ar.length();
            self.takenBefore.clear();
            self.takenBefore.reserve(n);
            for (std::size_t i = 0; i < n; ++i)
                self.takenBefore.insert(ar.u64());
        } else {
            std::vector<Addr> sorted(self.takenBefore.begin(),
                                     self.takenBefore.end());
            std::sort(sorted.begin(), sorted.end());
            ar.u64Vec(sorted);
        }
        ar(self.nextEstablishPC, self.currentStart, self.currentEnd);
        stats::checkpoint(ar, self.st);
    }

  private:
    void establish(Addr start_pc);

    const Program &prog;
    MultiBtb &btb;
    std::unordered_set<Addr> takenBefore;

    Addr nextEstablishPC = invalidAddr;
    Addr currentStart = invalidAddr;   ///< start of the live region
    Addr currentEnd = invalidAddr;     ///< fall-through of live region

    BtbBuilderStats st;
};

} // namespace elfsim

#endif // ELFSIM_BTB_BTB_BUILDER_HH
