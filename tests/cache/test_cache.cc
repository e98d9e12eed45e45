#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/serialize.hh"

using namespace elfsim;

namespace {

CacheParams
smallCache(std::string name, unsigned size = 1024, unsigned assoc = 2,
           unsigned line = 64, Cycle lat = 1)
{
    CacheParams p;
    p.name = std::move(name);
    p.sizeBytes = size;
    p.assoc = assoc;
    p.lineBytes = line;
    p.hitLatency = lat;
    return p;
}

} // namespace

TEST(Cache, MissThenHit)
{
    FixedLatencyMemory mem("mem", 100);
    Cache c(smallCache("c"), &mem);
    const Cycle missLat = c.access(0x1000, false, 0);
    EXPECT_EQ(missLat, 101u); // 100 (mem) + 1 (hit latency)
    const Cycle hitLat = c.access(0x1000, false, missLat);
    EXPECT_EQ(hitLat, 1u);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SameLineSharesFill)
{
    FixedLatencyMemory mem("mem", 50);
    Cache c(smallCache("c"), &mem);
    c.access(0x2000, false, 0);
    // Different word in the same 64B line, after the fill completes.
    EXPECT_EQ(c.access(0x2030, false, 100), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, InflightAccessWaitsForFill)
{
    FixedLatencyMemory mem("mem", 100);
    Cache c(smallCache("c"), &mem);
    c.access(0x3000, false, 0); // fill ready at cycle 100
    const Cycle lat = c.access(0x3000, false, 40);
    EXPECT_EQ(lat, 61u); // 60 remaining + 1 hit latency
}

TEST(Cache, LruEviction)
{
    FixedLatencyMemory mem("mem", 10);
    // 2-way, 8 sets of 64B lines: lines 0x0000, 0x2000, 0x4000 map to
    // set 0 (stride = numSets * line = 8 * 64 = 512; use multiples).
    Cache c(smallCache("c", 1024, 2), &mem);
    const Addr a = 0x0000, b = 0x4000, d = 0x8000; // all set 0
    c.access(a, false, 0);
    c.access(b, false, 100);
    c.access(a, false, 200);  // touch a: b becomes LRU
    c.access(d, false, 300);  // evicts b
    EXPECT_TRUE(c.present(a));
    EXPECT_FALSE(c.present(b));
    EXPECT_TRUE(c.present(d));
}

TEST(Cache, PrefetchFillsWithoutHitCount)
{
    FixedLatencyMemory mem("mem", 100);
    Cache c(smallCache("c"), &mem);
    c.prefetch(0x5000, 0);
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_TRUE(c.present(0x5000));
    // Demand access after the fill completes: plain hit.
    EXPECT_EQ(c.access(0x5000, false, 200), 1u);
    EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, PrefetchToPresentLineDropped)
{
    FixedLatencyMemory mem("mem", 100);
    Cache c(smallCache("c"), &mem);
    c.access(0x6000, false, 0);
    const auto before = mem.accesses();
    c.prefetch(0x6000, 10);
    EXPECT_EQ(mem.accesses(), before);
}

TEST(Cache, ProbeRespectsReadyTime)
{
    FixedLatencyMemory mem("mem", 100);
    Cache c(smallCache("c"), &mem);
    c.prefetch(0x7000, 0);
    EXPECT_FALSE(c.probe(0x7000, 50));
    EXPECT_TRUE(c.probe(0x7000, 150));
}

TEST(Cache, BankInterleaving)
{
    FixedLatencyMemory mem("mem", 10);
    CacheParams p = smallCache("l0i", 24 * 1024, 3);
    p.interleaves = 2;
    Cache c(p, &mem);
    EXPECT_EQ(c.bank(0x0000), 0u);
    EXPECT_EQ(c.bank(0x0040), 1u);
    EXPECT_EQ(c.bank(0x0080), 0u);
    // Same line -> same bank regardless of offset.
    EXPECT_EQ(c.bank(0x0044), 1u);
}

TEST(Cache, InvalidateAllEmpties)
{
    FixedLatencyMemory mem("mem", 10);
    Cache c(smallCache("c"), &mem);
    c.access(0x1000, false, 0);
    c.invalidateAll();
    EXPECT_FALSE(c.present(0x1000));
}

TEST(Cache, ChainedLevelsAccumulateLatency)
{
    FixedLatencyMemory mem("mem", 250);
    Cache l2(smallCache("l2", 4096, 4, 64, 13), &mem);
    Cache l1(smallCache("l1", 1024, 2, 64, 3), &l2);
    // Cold: 250 + 13 + 3.
    EXPECT_EQ(l1.access(0x9000, false, 0), 266u);
    // L1 hit after fill.
    EXPECT_EQ(l1.access(0x9000, false, 300), 3u);
    // L1 miss, L2 hit (different line, same L2 line? use a line that
    // was filled in L2 but evicted from L1).
    l1.invalidateAll();
    EXPECT_EQ(l1.access(0x9000, false, 400), 16u); // 13 + 3
}

TEST(Cache, ResidencyVersionMovesOnlyWhenLinesMayChange)
{
    FixedLatencyMemory mem("mem", 10);
    Cache c(smallCache("c"), &mem);
    std::uint64_t v = c.residencyVersion();

    c.access(0x1000, false, 0); // demand miss allocates
    EXPECT_GT(c.residencyVersion(), v);
    v = c.residencyVersion();
    c.access(0x1000, false, 5);  // in-flight hit
    c.access(0x1000, false, 50); // ready hit
    c.prefetch(0x1000, 60);      // already present: dropped
    EXPECT_EQ(c.residencyVersion(), v);

    c.prefetch(0x2000, 70); // prefetch fill allocates
    EXPECT_GT(c.residencyVersion(), v);
    v = c.residencyVersion();

    Serializer s;
    s(c);
    c.invalidateAll();
    EXPECT_GT(c.residencyVersion(), v);
    v = c.residencyVersion();
    Deserializer d(s.data());
    d(c);
    EXPECT_GT(c.residencyVersion(), v);
    EXPECT_TRUE(c.present(0x1000));
}
