/**
 * @file
 * Fetch Address Queue: the decoupling queue between branch prediction
 * and instruction retrieval (paper Figure 1, "FAQ" stage; 32 entries
 * in Table II).
 */

#ifndef ELFSIM_FRONTEND_FAQ_HH
#define ELFSIM_FRONTEND_FAQ_HH

#include <array>
#include <cstdint>

#include "bpred/ittage.hh"
#include "bpred/tage.hh"
#include "btb/btb_entry.hh"
#include "common/queue.hh"
#include "common/types.hh"

namespace elfsim {

/** Why a FAQ block ended (carried for ELF resynchronization). */
enum class FaqBlockEnd : std::uint8_t {
    Sequential,  ///< sequenced to the next block (fall-through)
    TakenBranch, ///< a predicted-taken branch terminates the block
};

/** Per-branch info inside a FAQ block (mirrors the BTB slots). */
struct FaqBranch
{
    bool valid = false;
    std::uint8_t offset = 0;        ///< instruction offset in block
    BranchKind kind = BranchKind::None;
    bool predTaken = false;
    Addr target = invalidAddr;      ///< predicted target if taken
    TagePrediction tagePred;        ///< conditional prediction
    IttagePrediction ittagePred;    ///< indirect prediction
};

/** One block of fetch addresses produced by the DCF. */
struct FaqEntry
{
    /** BP1 cycle that generated this block; the fetcher may consume
     *  it from genCycle + (BP1->FE latency) onwards. */
    Cycle genCycle = 0;
    Addr startPC = invalidAddr;
    std::uint8_t numInsts = 0;     ///< instructions the fetcher should
                                   ///< consume from startPC
    bool fromBtbMiss = false;      ///< sequential guess (no BTB info)
    FaqBlockEnd endCause = FaqBlockEnd::Sequential;
    Addr nextPC = invalidAddr;     ///< predicted successor block
    std::array<FaqBranch, btbMaxBranches> branches{};

    /** The branch slot covering instruction @a offset, or nullptr. */
    const FaqBranch *
    branchAt(unsigned offset) const
    {
        for (const FaqBranch &b : branches) {
            if (b.valid && b.offset == offset)
                return &b;
        }
        return nullptr;
    }

    /** The predicted-taken branch that ends the block, or nullptr. */
    const FaqBranch *
    takenBranch() const
    {
        if (endCause != FaqBlockEnd::TakenBranch)
            return nullptr;
        for (const FaqBranch &b : branches) {
            if (b.valid && b.predTaken)
                return &b;
        }
        return nullptr;
    }

    /**
     * Drop the first @a n instructions of the block (they were
     * already fetched in coupled mode; ELF resynchronization adjusts
     * the entry before decoupled mode resumes from it).
     */
    void
    advance(unsigned n)
    {
        if (n == 0)
            return;
        startPC += instsToBytes(n);
        numInsts = n >= numInsts ? 0
                                 : static_cast<std::uint8_t>(
                                       numInsts - n);
        for (FaqBranch &b : branches) {
            if (!b.valid)
                continue;
            if (b.offset < n)
                b.valid = false;
            else
                b.offset = static_cast<std::uint8_t>(b.offset - n);
        }
    }
};

/** The fetch address queue. */
class Faq
{
  public:
    explicit Faq(std::size_t entries = 32) : q(entries) {}

    bool empty() const { return q.empty(); }
    bool full() const { return q.full(); }
    std::size_t size() const { return q.size(); }
    std::size_t capacity() const { return q.capacity(); }

    void
    push(FaqEntry e)
    {
        q.push(std::move(e));
        ++ver;
    }
    FaqEntry
    pop()
    {
        ++ver;
        return q.pop();
    }
    void
    clear()
    {
        q.clear();
        ++ver;
    }

    /** Drop the head block's first @a n instructions (see
     *  FaqEntry::advance). */
    void
    advanceFront(unsigned n)
    {
        q.front().advance(n);
        ++ver;
    }

    /** Queued blocks are read-only: every change goes through the
     *  calls above, so version() sees it. */
    const FaqEntry &front() const { return q.front(); }
    const FaqEntry &at(std::size_t i) const { return q.at(i); }

    /** Bumped by push, pop, clear and advanceFront: while it holds
     *  still, the queue holds the same blocks at the same start PCs. */
    std::uint64_t version() const { return ver; }

  private:
    BoundedQueue<FaqEntry> q;
    std::uint64_t ver = 0;
};

} // namespace elfsim

#endif // ELFSIM_FRONTEND_FAQ_HH
