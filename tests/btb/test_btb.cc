#include <gtest/gtest.h>

#include <vector>

#include "btb/btb.hh"
#include "common/serialize.hh"

using namespace elfsim;

namespace {

BtbEntry
makeEntry(Addr start, unsigned n = 16)
{
    BtbEntry e;
    e.valid = true;
    e.startPC = start;
    e.numInsts = static_cast<std::uint8_t>(n);
    e.termination = n == btbMaxInsts ? BtbTermination::MaxInsts
                                     : BtbTermination::SlotPressure;
    return e;
}

} // namespace

TEST(BtbEntry, FallthroughAndMaxTracking)
{
    BtbEntry e = makeEntry(0x400000, 16);
    EXPECT_EQ(e.fallthrough(), 0x400000u + 64);
    EXPECT_TRUE(e.tracksMaxInsts());
    BtbEntry s = makeEntry(0x400000, 10);
    EXPECT_EQ(s.fallthrough(), 0x400000u + 40);
    EXPECT_FALSE(s.tracksMaxInsts());
}

TEST(BtbEntry, TerminatingUncond)
{
    BtbEntry e = makeEntry(0x400000, 5);
    EXPECT_EQ(e.terminatingUncond(), nullptr);
    e.termination = BtbTermination::Unconditional;
    e.slots[0] = {true, 4, BranchKind::UncondDirect, 0x500000};
    ASSERT_NE(e.terminatingUncond(), nullptr);
    EXPECT_EQ(e.terminatingUncond()->target, 0x500000u);
}

// The checkpoint of an entry reads back field for field, and a byte
// that names no termination, branch kind or boolean is a ParseError.
TEST(BtbEntry, CheckpointRejectsBytesThatNameNoValue)
{
    BtbEntry e = makeEntry(0x1000, 5);
    e.termination = BtbTermination::Unconditional;
    e.slots[0] = {true, 4, BranchKind::UncondDirect, 0x2000};
    Serializer s;
    s(e);
    const std::vector<std::uint8_t> good = s.data();

    BtbEntry back;
    Deserializer d(good);
    d(back);
    d.expectEnd();
    EXPECT_EQ(back.startPC, e.startPC);
    EXPECT_EQ(back.numInsts, e.numInsts);
    EXPECT_EQ(back.termination, e.termination);
    EXPECT_EQ(back.slots[0].kind, BranchKind::UncondDirect);
    EXPECT_EQ(back.slots[0].target, 0x2000u);

    // valid (1), startPC (8), numInsts (1), termination (1), then the
    // first slot: valid (1), offset (1), kind (1).
    const std::size_t validAt = 0, termAt = 10, kindAt = 13;
    for (const auto &[at, bad] :
         {std::pair{validAt, 2}, std::pair{termAt, 3},
          std::pair{kindAt, 7}}) {
        std::vector<std::uint8_t> bytes = good;
        bytes[at] = std::uint8_t(bad);
        BtbEntry out;
        Deserializer in(bytes);
        EXPECT_THROW(in(out), ParseError) << "byte " << at;
    }
}

TEST(BtbLevel, HitMissAndOverwrite)
{
    BtbLevel l({"l", 16, 4, 1});
    EXPECT_EQ(l.lookup(0x400000), nullptr);
    l.insert(makeEntry(0x400000, 16));
    const BtbEntry *e = l.lookup(0x400000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->numInsts, 16);
    // Overwrite in place (amendment).
    l.insert(makeEntry(0x400000, 8));
    EXPECT_EQ(l.lookup(0x400000)->numInsts, 8);
}

TEST(BtbLevel, LruWithinSet)
{
    // 8 entries, 2-way: 4 sets. Entries with startPC stride of
    // 4 * instBytes map to the same set.
    BtbLevel l({"l", 8, 2, 1});
    const Addr a = 0x400000;
    const Addr b = a + instsToBytes(4);
    const Addr c = a + instsToBytes(8);
    l.insert(makeEntry(a));
    l.insert(makeEntry(b));
    l.lookup(a); // touch a; b is LRU
    l.insert(makeEntry(c));
    EXPECT_NE(l.lookup(a), nullptr);
    EXPECT_EQ(l.lookup(b), nullptr);
    EXPECT_NE(l.lookup(c), nullptr);
}

TEST(BtbLevel, FullyAssociative)
{
    BtbLevel l({"l0", 4, 0, 0});
    // Entries with wildly different PCs coexist up to capacity.
    for (unsigned i = 0; i < 4; ++i)
        l.insert(makeEntry(0x400000 + instsToBytes(100 * i)));
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_NE(l.lookup(0x400000 + instsToBytes(100 * i)), nullptr);
    l.insert(makeEntry(0x900000));
    unsigned present = 0;
    for (unsigned i = 0; i < 4; ++i)
        present += l.lookup(0x400000 + instsToBytes(100 * i)) ? 1 : 0;
    EXPECT_EQ(present, 3u); // one victim evicted
}

TEST(MultiBtb, InsertGoesToL1AndL2NotL0)
{
    MultiBtb btb;
    btb.insert(makeEntry(0x400000));
    EXPECT_EQ(btb.level(0).lookup(0x400000), nullptr);
    EXPECT_NE(btb.level(1).lookup(0x400000), nullptr);
    EXPECT_NE(btb.level(2).lookup(0x400000), nullptr);
}

TEST(MultiBtb, LookupPromotesToInnerLevels)
{
    MultiBtb btb;
    btb.insert(makeEntry(0x400000));
    const BtbLookupResult r1 = btb.lookup(0x400000);
    EXPECT_TRUE(r1.hit);
    EXPECT_EQ(r1.level, 1);
    EXPECT_EQ(r1.latency, 1u);
    // Promoted into L0: next lookup is an L0 hit with 0 latency.
    const BtbLookupResult r0 = btb.lookup(0x400000);
    EXPECT_TRUE(r0.hit);
    EXPECT_EQ(r0.level, 0);
    EXPECT_EQ(r0.latency, 0u);
}

TEST(MultiBtb, MissReported)
{
    MultiBtb btb;
    const BtbLookupResult r = btb.lookup(0x400000);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.level, -1);
}

TEST(MultiBtb, CumulativeHitRates)
{
    MultiBtb btb;
    btb.insert(makeEntry(0x400000));
    btb.lookup(0x400000); // L1 hit
    btb.lookup(0x400000); // L0 hit
    btb.lookup(0x500000); // miss
    btb.lookup(0x500000); // miss
    EXPECT_DOUBLE_EQ(btb.cumulativeHitRate(0), 0.25);
    EXPECT_DOUBLE_EQ(btb.cumulativeHitRate(1), 0.5);
    EXPECT_DOUBLE_EQ(btb.cumulativeHitRate(2), 0.5);
}

TEST(MultiBtb, CapacityPressureEvictsL1BeforeL2)
{
    MultiBtb btb;
    // Insert far more entries than L1 (256) but fewer than L2 (4K).
    for (unsigned i = 0; i < 1024; ++i)
        btb.insert(makeEntry(0x400000 + instsToBytes(16 * i)));
    unsigned l1Hits = 0, l2Hits = 0;
    for (unsigned i = 0; i < 1024; ++i) {
        const Addr pc = 0x400000 + instsToBytes(16 * i);
        if (btb.level(1).lookup(pc))
            ++l1Hits;
        if (btb.level(2).lookup(pc))
            ++l2Hits;
    }
    EXPECT_LE(l1Hits, 256u);
    // The hashed set index spreads strided startPCs; a few bucket
    // overflows are acceptable, wholesale loss is not.
    EXPECT_GE(l2Hits, 1000u);
}
