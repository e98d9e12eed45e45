#include "cache/hierarchy.hh"

namespace elfsim {

MemHierarchy::MemHierarchy(const MemHierarchyParams &params)
{
    mem = std::make_unique<FixedLatencyMemory>("mem", params.memLatency);
    l3Cache = std::make_unique<Cache>(params.l3, mem.get());
    l2Cache = std::make_unique<Cache>(params.l2, l3Cache.get());
    l1iCache = std::make_unique<Cache>(params.l1i, l2Cache.get());
    l1dCache = std::make_unique<Cache>(params.l1d, l2Cache.get());
    l0iCache = std::make_unique<Cache>(params.l0i, l1iCache.get());
    if (params.dataPrefetch)
        dpf = std::make_unique<StridePrefetcher>(params.stridePf,
                                                 *l1dCache);
}

Cycle
MemHierarchy::dataAccess(Addr pc, Addr addr, bool write, Cycle now)
{
    const Cycle lat = l1dCache->access(addr, write, now);
    if (dpf)
        dpf->train(pc, addr, now);
    return lat;
}

} // namespace elfsim
