/**
 * @file
 * Small deterministic PRNG used by workload generators and predictors.
 *
 * xoshiro-style 64-bit generator: fast, reproducible across platforms,
 * and independent of the C++ standard library's unspecified
 * distributions.
 */

#ifndef ELFSIM_COMMON_RANDOM_HH
#define ELFSIM_COMMON_RANDOM_HH

#include <cstdint>

namespace elfsim {

/** Deterministic xorshift64* pseudo-random number generator. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state(seed ? seed : 0x9e3779b97f4a7c15ull)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state = x;
        return x * 0x2545f4914f6cdd1dull;
    }

    /** Uniform integer in [0, bound). bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) *
               (1.0 / 9007199254740992.0);
    }

    /** Bernoulli draw with probability p of true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Geometric-ish integer: 1 + floor(exponential tail), capped. */
    std::uint64_t
    geometric(double p, std::uint64_t cap)
    {
        std::uint64_t n = 1;
        while (n < cap && !chance(p))
            ++n;
        return n;
    }

    /** Reseed the generator. */
    void
    seed(std::uint64_t s)
    {
        state = s ? s : 0x9e3779b97f4a7c15ull;
    }

    /** Raw generator state. xorshift64* state is never zero, so
     *  seed(rawState()) is an exact restore. */
    std::uint64_t rawState() const { return state; }

    /** Checkpoint the raw state; a loaded zero reseeds as seed(0). */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar(self.state);
        if constexpr (Ar::loading)
            self.seed(self.state);
    }

  private:
    std::uint64_t state;
};

/** Mix two 64-bit values into one (for derived seeds / hash indexing). */
inline std::uint64_t
mix64(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t x = a + 0x9e3779b97f4a7c15ull + (b << 6) + (b >> 2);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

} // namespace elfsim

#endif // ELFSIM_COMMON_RANDOM_HH
