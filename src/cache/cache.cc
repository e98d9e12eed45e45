#include "cache/cache.hh"

#include "common/logging.hh"

namespace elfsim {

FixedLatencyMemory::FixedLatencyMemory(std::string name, Cycle latency)
    : memName(std::move(name)), latency(latency)
{
}

Cycle
FixedLatencyMemory::access(Addr, bool, Cycle, bool)
{
    ++st.accesses;
    return latency;
}

Cache::Cache(const CacheParams &params, MemoryLevel *next)
    : params(params), nextLevel(next),
      numSets(params.sizeBytes / (params.lineBytes * params.assoc)),
      lines(numSets * params.assoc)
{
    ELFSIM_ASSERT(nextLevel != nullptr, "cache '%s' has no next level",
                  params.name.c_str());
    ELFSIM_ASSERT(numSets >= 1 &&
                      numSets * params.lineBytes * params.assoc ==
                          params.sizeBytes,
                  "cache '%s': size %llu not divisible by %u-way x %uB",
                  params.name.c_str(),
                  (unsigned long long)params.sizeBytes, params.assoc,
                  params.lineBytes);
    ELFSIM_ASSERT(params.interleaves >= 1, "need >= 1 interleave");

    if (params.lineBytes > 0 &&
        (params.lineBytes & (params.lineBytes - 1)) == 0) {
        lineShift = 0;
        while ((1u << lineShift) < params.lineBytes)
            ++lineShift;
    }
    if ((numSets & (numSets - 1)) == 0) {
        setMask = numSets - 1;
        setMaskValid = true;
    }
}

Cache::Line *
Cache::findLine(Addr line)
{
    const Addr set = setIndex(line);
    for (unsigned w = 0; w < params.assoc; ++w) {
        Line &l = lines[set * params.assoc + w];
        if (l.valid && l.tag == line)
            return &l;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr line) const
{
    return const_cast<Cache *>(this)->findLine(line);
}

Cache::Line &
Cache::victim(Addr line)
{
    const Addr set = setIndex(line);
    Line *lru = &lines[set * params.assoc];
    for (unsigned w = 1; w < params.assoc; ++w) {
        Line &l = lines[set * params.assoc + w];
        if (!l.valid)
            return l;
        if (l.lastUse < lru->lastUse)
            lru = &l;
    }
    return *lru;
}

Cycle
Cache::access(Addr addr, bool write, Cycle now, bool is_prefetch)
{
    const Addr line = lineAddr(addr);
    ++useTick;

    if (Line *l = findLine(line)) {
        l->lastUse = useTick;
        if (l->readyCycle <= now) {
            ++st.hits;
            return params.hitLatency;
        }
        // Line is in flight (e.g. filled by a prefetch): wait for it.
        ++st.inflightHits;
        return (l->readyCycle - now) + params.hitLatency;
    }

    ++st.misses;
    const Cycle below = nextLevel->access(addr, write, now, is_prefetch);
    ++residency;
    Line &v = victim(line);
    v.valid = true;
    v.tag = line;
    v.lastUse = useTick;
    v.readyCycle = now + below;
    return below + params.hitLatency;
}

void
Cache::prefetch(Addr addr, Cycle now)
{
    const Addr line = lineAddr(addr);
    if (findLine(line)) {
        ++st.prefetchDrops;
        return;
    }
    ++st.prefetches;
    const Cycle below = nextLevel->access(addr, false, now, true);
    ++useTick;
    ++residency;
    Line &v = victim(line);
    v.valid = true;
    v.tag = line;
    v.lastUse = useTick;
    v.readyCycle = now + below;
}

bool
Cache::probe(Addr addr, Cycle now) const
{
    const Line *l = findLine(lineAddr(addr));
    return l != nullptr && l->readyCycle <= now;
}

bool
Cache::present(Addr addr) const
{
    return findLine(lineAddr(addr)) != nullptr;
}

void
Cache::invalidateAll()
{
    for (Line &l : lines)
        l = Line{};
    ++residency;
}

} // namespace elfsim
