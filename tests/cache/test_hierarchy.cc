#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "common/serialize.hh"

using namespace elfsim;

TEST(MemHierarchy, DefaultsMatchTableII)
{
    MemHierarchy h;
    EXPECT_EQ(h.l0i().config().sizeBytes, 24u * 1024);
    EXPECT_EQ(h.l0i().config().assoc, 3u);
    EXPECT_EQ(h.l0i().config().hitLatency, 1u);
    EXPECT_EQ(h.l0i().config().interleaves, 2u);
    EXPECT_EQ(h.l1i().config().sizeBytes, 64u * 1024);
    EXPECT_EQ(h.l1i().config().hitLatency, 3u);
    EXPECT_EQ(h.l1d().config().sizeBytes, 32u * 1024);
    EXPECT_EQ(h.l2().config().sizeBytes, 512u * 1024);
    EXPECT_EQ(h.l2().config().hitLatency, 13u);
    EXPECT_EQ(h.l2().config().lineBytes, 128u);
    EXPECT_EQ(h.l3().config().sizeBytes, 16u * 1024 * 1024);
    EXPECT_EQ(h.l3().config().hitLatency, 35u);
}

TEST(MemHierarchy, InstFetchWarmsL0)
{
    MemHierarchy h;
    const Cycle cold = h.instFetch(0x400000, 0);
    EXPECT_GT(cold, 250u); // goes to memory
    const Cycle warm = h.instFetch(0x400000, cold + 1);
    EXPECT_EQ(warm, 1u);
}

TEST(MemHierarchy, InstPrefetchHidesLatency)
{
    MemHierarchy h;
    h.prefetchInst(0x400100, 0);
    // Well after the fill completes, the demand fetch is an L0 hit.
    EXPECT_TRUE(h.l0iReady(0x400100, 1000));
    EXPECT_EQ(h.instFetch(0x400100, 1000), 1u);
}

TEST(MemHierarchy, DataAccessSeparateFromInstSide)
{
    MemHierarchy h;
    h.dataAccess(0x400000, 0x10000000, false, 0);
    // The I-side never saw that line.
    EXPECT_FALSE(h.l0i().present(0x10000000));
    EXPECT_TRUE(h.l1d().present(0x10000000));
    // Both share L2.
    EXPECT_TRUE(h.l2().present(0x10000000));
}

TEST(MemHierarchy, StridePrefetcherKicksIn)
{
    MemHierarchy h;
    // March a strided stream from one PC; after training, lines ahead
    // should be present in L1D before demand touches them.
    const Addr pc = 0x400020;
    Addr a = 0x20000000;
    Cycle now = 0;
    for (int i = 0; i < 8; ++i) {
        h.dataAccess(pc, a, false, now);
        a += 64;
        now += 300;
    }
    EXPECT_GT(h.stridePrefetcher()->issued(), 0u);
    // The next strided line should already be present.
    EXPECT_TRUE(h.l1d().present(a));
}

TEST(MemHierarchy, NoPrefetchWhenDisabled)
{
    MemHierarchyParams p;
    p.dataPrefetch = false;
    MemHierarchy h(p);
    EXPECT_EQ(h.stridePrefetcher(), nullptr);
}

// A payload restores only into a hierarchy that agrees on whether
// the stride prefetcher exists.
TEST(MemHierarchy, CheckpointChecksPrefetcherPresence)
{
    MemHierarchyParams with, without;
    without.dataPrefetch = false;
    MemHierarchy a(with), b(without);
    Serializer sa, sb;
    sa(a);
    sb(b);
    MemHierarchy a2(with), b2(without);
    Deserializer ok(sa.data());
    ok(a2);
    ok.expectEnd();
    Deserializer toWithout(sa.data()), toWith(sb.data());
    EXPECT_THROW(toWithout(b2), ParseError);
    EXPECT_THROW(toWith(a2), ParseError);
}

TEST(StridePrefetcher, RandomStreamDoesNotTrigger)
{
    MemHierarchy h;
    const Addr pc = 0x400040;
    Cycle now = 0;
    // Irregular strides: confidence never saturates.
    const Addr seq[] = {0x30000000, 0x30004040, 0x30000780, 0x30003000,
                        0x30001980, 0x30006540};
    for (Addr a : seq) {
        h.dataAccess(pc, a, false, now);
        now += 300;
    }
    EXPECT_EQ(h.stridePrefetcher()->issued(), 0u);
}
