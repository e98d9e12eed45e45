/**
 * @file
 * Global history register and folded-history helpers for TAGE-style
 * predictors.
 */

#ifndef ELFSIM_COMMON_HISTORY_HH
#define ELFSIM_COMMON_HISTORY_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace elfsim {

/**
 * A long global branch history register stored as a shift register of
 * bits, with O(1) speculative update and pointer-based checkpointing.
 *
 * The history is stored in a circular bit buffer; a "pointer" marks the
 * position of the youngest bit. Checkpointing the predictor state is
 * then just saving the pointer (plus folded-history snapshots), which
 * mirrors the "pointer to Global History Register bit" checkpoint
 * payload mentioned in the paper (Section IV-D).
 */
class GlobalHistory
{
  public:
    explicit GlobalHistory(unsigned length)
        : len(length)
    {
        ELFSIM_ASSERT(length > 0, "history length must be non-zero");
        // Power-of-two storage so the hot push/bitAt paths are a
        // masked add instead of an integer divide.
        unsigned cap = 1;
        while (cap < length)
            cap <<= 1;
        mask = cap - 1;
        bits.assign(cap, 0);
    }

    /** Shift in a new youngest bit. */
    void
    push(bool taken)
    {
        ptr = (ptr + 1) & mask;
        bits[ptr] = taken ? 1 : 0;
    }

    /** Bit i positions back from the youngest (0 = youngest). */
    bool
    bitAt(unsigned i) const
    {
        ELFSIM_ASSERT(i < len, "history index out of range");
        return bits[(ptr - i) & mask] != 0;
    }

    /** Current youngest-bit pointer (checkpoint payload). */
    unsigned pointer() const { return ptr; }

    /**
     * Restore the pointer to a checkpointed position. Bits younger
     * than the checkpoint are simply abandoned; the underlying storage
     * still holds the correct older bits because pushes only overwrite
     * the slot at the new pointer.
     */
    void restore(unsigned p) { ptr = p & mask; }

    unsigned length() const { return len; }

    /** Checkpoint the pointer and the full bit buffer (warm-state
     *  checkpoints need the bits, not just the pointer); a loaded
     *  pointer wraps into the buffer. */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar(self.ptr);
        ar.check(self.bits.size(), "history geometry");
        for (auto &b : self.bits)
            ar(b);
        if constexpr (Ar::loading)
            self.ptr &= self.mask;
    }

  private:
    std::vector<std::uint8_t> bits;
    unsigned len;
    unsigned mask = 0;
    unsigned ptr = 0;
};

/**
 * Folded history: compresses the most recent @a origLen history bits
 * into @a foldedLen bits by XOR-folding, maintained incrementally as
 * bits are pushed/retired. Used to form TAGE indices and tags cheaply.
 */
class FoldedHistory
{
  public:
    FoldedHistory() = default;

    FoldedHistory(unsigned orig_len, unsigned folded_len)
        : origLen(orig_len), foldedLen(folded_len),
          outPoint(orig_len % folded_len)
    {
        ELFSIM_ASSERT(folded_len > 0 && folded_len <= 32,
                      "bad folded length");
    }

    /**
     * Incorporate the new youngest bit and expire the bit that just
     * fell off the end of the original-length window.
     *
     * @param new_bit The bit shifted into the global history.
     * @param old_bit The bit at distance origLen before this push.
     */
    void
    update(bool new_bit, bool old_bit)
    {
        comp = (comp << 1) | (new_bit ? 1u : 0u);
        comp ^= (old_bit ? 1u : 0u) << outPoint;
        comp ^= comp >> foldedLen;
        comp &= (1u << foldedLen) - 1;
    }

    /** Current folded value. */
    std::uint32_t value() const { return comp; }

    /** Restore from a checkpoint. */
    void restore(std::uint32_t v) { comp = v & ((1u << foldedLen) - 1); }

    /** Checkpoint the folded value; a loaded one is masked as by
     *  restore(). */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar(self.comp);
        if constexpr (Ar::loading)
            self.restore(self.comp);
    }

    unsigned originalLength() const { return origLen; }
    unsigned foldedLength() const { return foldedLen; }

  private:
    unsigned origLen = 0;
    unsigned foldedLen = 1;
    unsigned outPoint = 0;
    std::uint32_t comp = 0;
};

} // namespace elfsim

#endif // ELFSIM_COMMON_HISTORY_HH
