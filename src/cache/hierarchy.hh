/**
 * @file
 * The Table II memory hierarchy: L0I + L1I on the instruction side,
 * L1D on the data side, unified L2 and L3, fixed-latency memory, and
 * a stride prefetcher training on data accesses.
 */

#ifndef ELFSIM_CACHE_HIERARCHY_HH
#define ELFSIM_CACHE_HIERARCHY_HH

#include <memory>

#include "cache/cache.hh"
#include "cache/prefetch.hh"

namespace elfsim {

/** Parameters for the whole hierarchy (defaults = paper's Table II). */
struct MemHierarchyParams
{
    CacheParams l0i{"l0i", 24 * 1024, 3, 64, 1, 2};
    CacheParams l1i{"l1i", 64 * 1024, 8, 64, 3, 1};
    CacheParams l1d{"l1d", 32 * 1024, 8, 64, 3, 1};
    CacheParams l2{"l2", 512 * 1024, 8, 128, 13, 1};
    CacheParams l3{"l3", 16 * 1024 * 1024, 16, 128, 35, 1};
    Cycle memLatency = 250;
    bool dataPrefetch = true;
    StridePrefetcherParams stridePf{};
};

/** Owns and wires the cache levels. */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const MemHierarchyParams &params = {});

    /**
     * Demand instruction fetch through L0I.
     * @return cycles until the instruction bytes are available.
     */
    Cycle
    instFetch(Addr addr, Cycle now)
    {
        return l0iCache->access(addr, false, now);
    }

    /**
     * Demand data access through L1D; trains the stride prefetcher.
     * @return cycles until the data is available (load-to-use).
     */
    Cycle dataAccess(Addr pc, Addr addr, bool write, Cycle now);

    /**
     * The longest load-to-use latency dataAccess() can return: a miss
     * from the L1D through the L2 and L3 to memory. A hit on a line
     * still filling waits at most for the rest of that fill, which
     * started no later than the access, so it never costs more.
     */
    Cycle
    worstLoadLatency() const
    {
        return l1dCache->config().hitLatency +
               l2Cache->config().hitLatency +
               l3Cache->config().hitLatency + mem->fixedLatency();
    }

    /** FAQ-directed instruction prefetch into L0I (fills L1I/L2 too). */
    void
    prefetchInst(Addr addr, Cycle now)
    {
        l0iCache->prefetch(addr, now);
    }

    /** @return true iff the L0I holds @a addr ready at @a now. */
    bool
    l0iReady(Addr addr, Cycle now) const
    {
        return l0iCache->probe(addr, now);
    }

    Cache &l0i() { return *l0iCache; }
    Cache &l1i() { return *l1iCache; }
    Cache &l1d() { return *l1dCache; }
    Cache &l2() { return *l2Cache; }
    Cache &l3() { return *l3Cache; }
    const Cache &l0i() const { return *l0iCache; }
    const Cache &l1i() const { return *l1iCache; }
    const Cache &l1d() const { return *l1dCache; }
    const Cache &l2() const { return *l2Cache; }
    const Cache &l3() const { return *l3Cache; }
    FixedLatencyMemory &memory() { return *mem; }
    const FixedLatencyMemory &memory() const { return *mem; }
    StridePrefetcher *stridePrefetcher() { return dpf.get(); }
    const StridePrefetcher *stridePrefetcher() const { return dpf.get(); }

    /**
     * Call @a v(name, counters) for each level, innermost (L0I)
     * first, then the backing memory and the stride prefetcher.
     */
    template <typename V>
    void
    visitStats(V &&v) const
    {
        for (const Cache *c : {l0iCache.get(), l1iCache.get(),
                               l1dCache.get(), l2Cache.get(),
                               l3Cache.get()})
            v(c->name().c_str(), c->stats());
        v(mem->name().c_str(), mem->stats());
        if (dpf)
            v("stride_pf", dpf->stats());
    }

    /** Checkpoint every level plus prefetcher and memory counters;
     *  a payload must agree on whether the prefetcher exists. */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar(*self.l0iCache, *self.l1iCache, *self.l1dCache, *self.l2Cache,
           *self.l3Cache, *self.mem);
        ar.check(self.dpf != nullptr, "stride prefetcher presence");
        if (self.dpf)
            ar(*self.dpf);
    }

  private:
    std::unique_ptr<FixedLatencyMemory> mem;
    std::unique_ptr<Cache> l3Cache;
    std::unique_ptr<Cache> l2Cache;
    std::unique_ptr<Cache> l1iCache;
    std::unique_ptr<Cache> l1dCache;
    std::unique_ptr<Cache> l0iCache;
    std::unique_ptr<StridePrefetcher> dpf;
};

} // namespace elfsim

#endif // ELFSIM_CACHE_HIERARCHY_HH
