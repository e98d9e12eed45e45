/**
 * @file
 * PC-indexed stride prefetcher ("Advanced Stride-based prefetch" in
 * the paper's Table II memory configuration).
 */

#ifndef ELFSIM_CACHE_PREFETCH_HH
#define ELFSIM_CACHE_PREFETCH_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "common/types.hh"

namespace elfsim {

/** Stride prefetcher parameters. */
struct StridePrefetcherParams
{
    unsigned tableEntries = 256;  ///< direct-mapped PC table
    unsigned degree = 2;          ///< prefetches issued per trigger
    unsigned distance = 2;        ///< lead distance in strides
    unsigned confThreshold = 2;   ///< confidence needed to issue
};

/** Stride prefetcher counters; the field order is the checkpoint's. */
struct StridePrefetcherStats
{
    std::uint64_t issued = 0;  ///< prefetches issued
    std::uint64_t trained = 0; ///< training accesses

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("issued", self.issued);
        v("trained", self.trained);
    }
};

/**
 * Classic PC-based stride prefetcher: learns (last address, stride,
 * confidence) per load/store PC and prefetches ahead once confident.
 */
class StridePrefetcher
{
  public:
    StridePrefetcher(const StridePrefetcherParams &params, Cache &target);

    /** Observe a demand access from @a pc to @a addr; maybe prefetch. */
    void train(Addr pc, Addr addr, Cycle now);

    /** Reset learned state. */
    void reset();

    const StridePrefetcherStats &stats() const { return st; }
    std::uint64_t issued() const { return st.issued; }

    /** Checkpoint the learned stride table and counters. */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar.check(self.table.size(), "stride prefetcher geometry");
        for (auto &e : self.table)
            ar(e.tag, e.lastAddr, e.stride, e.conf);
        stats::checkpoint(ar, self.st);
    }

  private:
    struct Entry
    {
        Addr tag = invalidAddr;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        unsigned conf = 0;
    };

    StridePrefetcherParams params;
    Cache &target;
    std::vector<Entry> table;
    StridePrefetcherStats st;
};

} // namespace elfsim

#endif // ELFSIM_CACHE_PREFETCH_HH
