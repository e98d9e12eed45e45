/**
 * @file
 * Saturating up/down counter, the workhorse of branch predictors.
 */

#ifndef ELFSIM_COMMON_SAT_COUNTER_HH
#define ELFSIM_COMMON_SAT_COUNTER_HH

#include <cstdint>

#include "common/logging.hh"

namespace elfsim {

/**
 * An n-bit saturating counter. The counter saturates at 0 and
 * (2^bits - 1). For direction prediction the MSB is the taken bit.
 *
 * Stored as two 16-bit halves (4 bytes total) so the large predictor
 * tables that embed one counter per entry stay cache-dense, and
 * updated branchlessly: the saturation clamp compiles to a compare
 * and an add, with no data-dependent branch for the predictor's
 * essentially random taken/not-taken stream to mispredict on.
 */
class SatCounter
{
  public:
    SatCounter() = default;

    /**
     * @param bits Counter width in bits (1..16).
     * @param initial Initial counter value.
     */
    explicit SatCounter(unsigned bits, unsigned initial = 0)
        : maxVal(std::uint16_t((1u << bits) - 1)),
          value(std::uint16_t(initial))
    {
        ELFSIM_ASSERT(bits >= 1 && bits <= 16, "bad counter width");
        ELFSIM_ASSERT(initial <= maxVal, "initial value out of range");
    }

    /** Increment, saturating at the maximum. */
    void
    increment()
    {
        value += std::uint16_t(value < maxVal);
    }

    /** Decrement, saturating at zero. */
    void
    decrement()
    {
        value -= std::uint16_t(value > 0);
    }

    /** Move the counter towards taken (true) or not-taken (false). */
    void
    update(bool taken)
    {
        const std::uint16_t up = std::uint16_t(taken && value < maxVal);
        const std::uint16_t dn = std::uint16_t(!taken && value > 0);
        value = std::uint16_t(value + up - dn);
    }

    /** @return true iff the MSB is set (predict taken). */
    bool isTaken() const { return value > maxVal / 2; }

    /** @return true iff the counter is at either saturation point. */
    bool isSaturated() const { return value == 0 || value == maxVal; }

    /** @return true iff the counter is weakly confident (mid values). */
    bool
    isWeak() const
    {
        return value == maxVal / 2 || value == maxVal / 2 + 1;
    }

    /** Raw counter value. */
    unsigned raw() const { return value; }

    /** Directly set the raw value (clamped to range). */
    void
    set(unsigned v)
    {
        value = v > maxVal ? maxVal : std::uint16_t(v);
    }

    /** Reset to the weakly-not-taken midpoint. */
    void resetWeak() { value = maxVal / 2; }

    /** Maximum representable value. */
    unsigned max() const { return maxVal; }

    /** Checkpoint the raw value; a loaded value is clamped as by
     *  set(). */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar(self.value);
        if constexpr (Ar::loading)
            self.set(self.value);
    }

  private:
    std::uint16_t maxVal = 3;
    std::uint16_t value = 0;
};

} // namespace elfsim

#endif // ELFSIM_COMMON_SAT_COUNTER_HH
