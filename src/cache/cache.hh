/**
 * @file
 * Set-associative cache model with a simple latency-based timing
 * scheme.
 *
 * Each line records the cycle at which its data becomes available
 * (readyCycle). An access that hits a ready line costs the hit
 * latency; an access that hits an in-flight line waits for the fill;
 * a miss recursively accesses the next level and allocates the line.
 * There is no bandwidth or MSHR-count model — the paper's effects are
 * latency effects (taken-branch bubbles, miss exposure), which this
 * captures.
 */

#ifndef ELFSIM_CACHE_CACHE_HH
#define ELFSIM_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stat_fields.hh"
#include "common/types.hh"

namespace elfsim {

/** Anything that can serve memory accesses with a latency. */
class MemoryLevel
{
  public:
    virtual ~MemoryLevel() = default;

    /**
     * Access @a addr at time @a now.
     *
     * @param addr Byte address.
     * @param write True for stores.
     * @param now Current cycle.
     * @param is_prefetch True when issued by a prefetcher (counted
     *        separately; still fills lines).
     * @return Number of cycles until the data is available.
     */
    virtual Cycle access(Addr addr, bool write, Cycle now,
                         bool is_prefetch = false) = 0;

    /** Component name (for stats/traces). */
    virtual const std::string &name() const = 0;
};

/** Backing-memory counters. */
struct MemoryStats
{
    std::uint64_t accesses = 0;

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("accesses", self.accesses);
    }
};

/** Fixed-latency backing memory. */
class FixedLatencyMemory : public MemoryLevel
{
  public:
    FixedLatencyMemory(std::string name, Cycle latency);

    Cycle access(Addr addr, bool write, Cycle now,
                 bool is_prefetch = false) override;
    const std::string &name() const override { return memName; }

    const MemoryStats &stats() const { return st; }
    std::uint64_t accesses() const { return st.accesses; }
    Cycle fixedLatency() const { return latency; }

    /** Checkpoint the access counter (see common/serialize.hh). */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        stats::checkpoint(ar, self.st);
    }

  private:
    std::string memName;
    Cycle latency;
    MemoryStats st;
};

/** Geometry and timing parameters of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned lineBytes = 64;
    Cycle hitLatency = 1;
    /**
     * Number of set interleaves (banks selected by low line-address
     * bits). The L0 I-cache uses 2-way set interleaving, which lets
     * the fetcher fetch across a taken branch in a single cycle when
     * branch and target lines fall in different interleaves.
     */
    unsigned interleaves = 1;
};

/** Per-level cache counters; the field order is the checkpoint's. */
struct CacheStats
{
    std::uint64_t hits = 0;          ///< ready-line hits
    std::uint64_t misses = 0;        ///< line fills required
    std::uint64_t inflightHits = 0;  ///< hits on lines still filling
    std::uint64_t prefetches = 0;    ///< prefetch fills issued
    std::uint64_t prefetchDrops = 0; ///< prefetches to present lines

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("hits", self.hits);
        v("misses", self.misses);
        v("inflight_hits", self.inflightHits);
        v("prefetches", self.prefetches);
        v("prefetch_drops", self.prefetchDrops);
    }
};

/** One set-associative cache level with LRU replacement. */
class Cache : public MemoryLevel
{
  public:
    /**
     * @param params Geometry/timing.
     * @param next Next level (not owned; must outlive this cache).
     */
    Cache(const CacheParams &params, MemoryLevel *next);

    Cycle access(Addr addr, bool write, Cycle now,
                 bool is_prefetch = false) override;

    /**
     * Start filling the line containing @a addr (no latency returned
     * to a consumer). Used for FAQ-directed instruction prefetch and
     * the D-side stride prefetcher.
     */
    void prefetch(Addr addr, Cycle now);

    /** @return true iff the line is present and ready at @a now. */
    bool probe(Addr addr, Cycle now) const;

    /** @return true iff the line is present (ready or in flight). */
    bool present(Addr addr) const;

    /** Interleave (bank) index of the line containing @a addr. */
    unsigned
    bank(Addr addr) const
    {
        return unsigned(lineAddr(addr) % params.interleaves);
    }

    /** Invalidate the whole cache (used between benchmark runs). */
    void invalidateAll();

    /**
     * Bumped whenever the set of resident lines may change: on every
     * line allocation (demand miss or prefetch fill), invalidateAll
     * and a checkpoint load. While it holds still, present() answers
     * exactly as before for every address.
     */
    std::uint64_t residencyVersion() const { return residency; }

    const std::string &name() const override { return params.name; }
    const CacheParams &config() const { return params; }

    const CacheStats &stats() const { return st; }
    std::uint64_t hits() const { return st.hits; }
    std::uint64_t misses() const { return st.misses; }
    std::uint64_t accesses() const { return st.hits + st.misses; }

    /** Checkpoint contents, recency state, and statistics. readyCycle
     *  values are absolute cycles, so the consumer must checkpoint the
     *  core cycle counter alongside. A load bumps residencyVersion(). */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar.check(self.lines.size(), "cache geometry");
        for (auto &l : self.lines)
            ar(l.tag, l.valid, l.readyCycle, l.lastUse);
        ar(self.useTick);
        if constexpr (Ar::loading)
            ++self.residency;
        stats::checkpoint(ar, self.st);
    }

  private:
    struct Line
    {
        Addr tag = invalidAddr;
        bool valid = false;
        Cycle readyCycle = 0;
        std::uint64_t lastUse = 0;
    };

    /**
     * Line number / set index, on every lookup. Line size and set
     * count are powers of two in every shipped configuration, so the
     * hot path is a shift and a mask; the division fallback keeps
     * odd geometries correct.
     */
    Addr
    lineAddr(Addr addr) const
    {
        return lineShift >= 0 ? addr >> lineShift
                              : addr / params.lineBytes;
    }
    Addr
    setIndex(Addr line) const
    {
        return setMaskValid ? line & setMask : line % numSets;
    }

    /** Find the line; nullptr on miss. */
    Line *findLine(Addr line);
    const Line *findLine(Addr line) const;

    /** Choose a victim way in the set of @a line. */
    Line &victim(Addr line);

    CacheParams params;
    MemoryLevel *nextLevel;
    std::uint64_t numSets;
    /** log2(lineBytes), or -1 when lineBytes is not a power of two. */
    int lineShift = -1;
    /** numSets - 1 when numSets is a power of two (see setMaskValid). */
    Addr setMask = 0;
    bool setMaskValid = false;
    std::vector<Line> lines; // numSets * assoc, set-major
    std::uint64_t useTick = 0;
    std::uint64_t residency = 0; ///< see residencyVersion()

    CacheStats st;
};

} // namespace elfsim

#endif // ELFSIM_CACHE_CACHE_HH
