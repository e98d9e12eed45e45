/**
 * @file
 * Return Address Stack with O(1) checkpoint/restore.
 *
 * The snapshot saves the top-of-stack pointer *and* the top value so
 * that the common corruption case (a speculative push overwrote the
 * entry a restored pointer points at) is repaired on restore.
 */

#ifndef ELFSIM_BPRED_RAS_HH
#define ELFSIM_BPRED_RAS_HH

#include <vector>

#include "common/error.hh"
#include "common/types.hh"

namespace elfsim {

/** Circular return address stack. */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(unsigned entries = 32)
        : stack(entries, invalidAddr), numEntries(entries)
    {}

    /** Push a return address (on calls). */
    void
    push(Addr ret_addr)
    {
        tos = (tos + 1) % numEntries;
        stack[tos] = ret_addr;
        if (depth < numEntries)
            ++depth;
    }

    /** Pop the predicted return target (on returns). */
    Addr
    pop()
    {
        if (depth == 0)
            return invalidAddr;
        const Addr a = stack[tos];
        tos = (tos + numEntries - 1) % numEntries;
        --depth;
        return a;
    }

    /** Peek without popping. */
    Addr top() const { return depth ? stack[tos] : invalidAddr; }

    /** Current speculative depth (saturates at capacity). */
    unsigned size() const { return depth; }
    bool empty() const { return depth == 0; }
    unsigned capacity() const { return numEntries; }

    /** Checkpoint state. */
    struct Snapshot
    {
        unsigned tos = 0;
        unsigned depth = 0;
        Addr topValue = invalidAddr;
    };

    Snapshot
    snapshot() const
    {
        return {tos, depth, depth ? stack[tos] : invalidAddr};
    }

    void
    restore(const Snapshot &s)
    {
        tos = s.tos;
        depth = s.depth;
        if (depth)
            stack[tos] = s.topValue;
    }

    /** Empty the stack. */
    void
    reset()
    {
        tos = 0;
        depth = 0;
    }

    /** Storage cost in bytes (64-bit addresses). */
    double storageBytes() const { return numEntries * 8.0; }

    /** Checkpoint the whole stack (warm-state checkpoints need every
     *  entry, unlike the O(1) pipeline Snapshot); a loaded top wraps
     *  into the stack and a loaded depth must fit it. */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar.check(self.stack.size(), "ras geometry");
        for (auto &a : self.stack)
            ar(a);
        ar(self.tos, self.depth);
        if constexpr (Ar::loading) {
            self.tos %= self.numEntries;
            if (self.depth > self.numEntries)
                throw ParseError("ras: depth out of range");
        }
    }

  private:
    std::vector<Addr> stack;
    unsigned numEntries;
    unsigned tos = 0;
    unsigned depth = 0;
};

} // namespace elfsim

#endif // ELFSIM_BPRED_RAS_HH
