#include <gtest/gtest.h>

#include "bpred/bimodal.hh"
#include "bpred/btc.hh"
#include "bpred/ras.hh"
#include "common/serialize.hh"

using namespace elfsim;

TEST(Bimodal, LearnsBias)
{
    Bimodal b;
    const Addr pc = 0x400010;
    for (int i = 0; i < 10; ++i)
        b.update(pc, true);
    EXPECT_TRUE(b.predict(pc));
    EXPECT_TRUE(b.saturated(pc));
    for (int i = 0; i < 10; ++i)
        b.update(pc, false);
    EXPECT_FALSE(b.predict(pc));
}

TEST(Bimodal, SaturationGateForCondElf)
{
    // COND-ELF only speculates past saturated counters: a couple of
    // updates must not saturate a 3-bit counter.
    Bimodal b;
    const Addr pc = 0x400020;
    b.update(pc, true);
    b.update(pc, true);
    EXPECT_FALSE(b.saturated(pc));
    for (int i = 0; i < 8; ++i)
        b.update(pc, true);
    EXPECT_TRUE(b.saturated(pc));
}

TEST(Bimodal, AliasingUsesIndexModuloEntries)
{
    BimodalParams p;
    p.entries = 16;
    Bimodal b(p);
    const Addr pc = 0x400000;
    const Addr alias = pc + 16 * instBytes;
    for (int i = 0; i < 8; ++i)
        b.update(pc, true);
    EXPECT_TRUE(b.predict(alias)); // same entry
}

TEST(Bimodal, StorageMatchesPaper)
{
    // 2K entries x 3 bits = 0.75KB (Table II).
    Bimodal b;
    EXPECT_DOUBLE_EQ(b.storageBytes(), 768.0);
}

// A counter loads clamped to its width, and a table of another size
// is a ParseError.
TEST(Bimodal, CheckpointClampsCountersAndChecksGeometry)
{
    Serializer s;
    s.u64(2048);
    for (unsigned i = 0; i < 2048; ++i)
        s.u16(i == 0 ? 9 : 0); // 9 does not fit a 3-bit counter
    Bimodal b;
    Deserializer d(s.data());
    d(b);
    d.expectEnd();
    EXPECT_TRUE(b.saturated(0));
    EXPECT_TRUE(b.predict(0));

    Bimodal small(BimodalParams{1024, 3});
    Deserializer other(s.data());
    EXPECT_THROW(other(small), ParseError);
}

TEST(Ras, PushPopLifo)
{
    ReturnAddressStack ras(4);
    ras.push(0x100);
    ras.push(0x200);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
    EXPECT_EQ(ras.pop(), invalidAddr);
}

TEST(Ras, OverflowWrapsKeepingNewest)
{
    ReturnAddressStack ras(2);
    ras.push(1);
    ras.push(2);
    ras.push(3); // overwrites the oldest
    EXPECT_EQ(ras.pop(), 3u);
    EXPECT_EQ(ras.pop(), 2u);
}

TEST(Ras, SnapshotRestoreRepairsTop)
{
    ReturnAddressStack ras(8);
    ras.push(0xa);
    ras.push(0xb);
    const auto snap = ras.snapshot();
    // Speculative activity: pop both, push garbage that lands on the
    // checkpointed top slot.
    ras.pop();
    ras.pop();
    ras.push(0xdead);
    ras.push(0xbeef);
    ras.restore(snap);
    // The snapshot repairs the top-of-stack entry. Deeper corruption
    // (0xdead overwrote 0xa) is unrecoverable by design — real RAS
    // checkpoints save only (pointer, top value).
    EXPECT_EQ(ras.top(), 0xbu);
    EXPECT_EQ(ras.pop(), 0xbu);
    EXPECT_EQ(ras.size(), 1u);
}

TEST(Ras, SnapshotRestoreWithoutDeepCorruption)
{
    // When speculation did not wrap into checkpointed slots, restore
    // recovers the full stack.
    ReturnAddressStack ras(8);
    ras.push(0xa);
    ras.push(0xb);
    const auto snap = ras.snapshot();
    ras.push(0xc); // speculative push above the checkpoint
    ras.restore(snap);
    EXPECT_EQ(ras.pop(), 0xbu);
    EXPECT_EQ(ras.pop(), 0xau);
    EXPECT_TRUE(ras.empty());
}

TEST(Ras, CopyAssignGivesIndependentStacks)
{
    ReturnAddressStack a(8), b(8);
    a.push(1);
    b = a;
    b.push(2);
    EXPECT_EQ(a.size(), 1u);
    EXPECT_EQ(b.size(), 2u);
    EXPECT_EQ(b.pop(), 2u);
    EXPECT_EQ(a.top(), 1u);
}

// A loaded top of stack wraps into the stack; a depth beyond it is
// a ParseError.
TEST(Ras, CheckpointWrapsTopAndChecksDepth)
{
    ReturnAddressStack r(4);
    r.push(0x100);
    r.push(0x200);
    Serializer s;
    s(r);
    std::vector<std::uint8_t> bytes = s.data();
    // size (8) + 4 entries (32), then tos (4) and depth (4).
    bytes[40] = 6; // tos 6 wraps to 2
    ReturnAddressStack back(4);
    Deserializer d(bytes);
    d(back);
    d.expectEnd();
    EXPECT_EQ(back.size(), 2u);
    EXPECT_EQ(back.top(), 0x200u);

    bytes[44] = 5; // depth 5 > capacity 4
    ReturnAddressStack deep(4);
    Deserializer in(bytes);
    EXPECT_THROW(in(deep), ParseError);
}

TEST(Btc, HitAfterUpdate)
{
    BranchTargetCache btc;
    EXPECT_EQ(btc.predict(0x400100), invalidAddr);
    btc.update(0x400100, 0x500000);
    EXPECT_EQ(btc.predict(0x400100), 0x500000u);
}

TEST(Btc, ConflictEvicts)
{
    BtcParams p;
    p.entries = 16;
    BranchTargetCache btc(p);
    const Addr a = 0x400000;
    const Addr b = a + 16 * instBytes; // same index, different tag
    btc.update(a, 0x111);
    btc.update(b, 0x222);
    EXPECT_EQ(btc.predict(a), invalidAddr);
    EXPECT_EQ(btc.predict(b), 0x222u);
}

TEST(Btc, TagPreventsFalseHit)
{
    BranchTargetCache btc;
    btc.update(0x400100, 0x500000);
    // Different PC, same index would require entries distance; use a
    // PC far away mapping to the same slot.
    const Addr alias = 0x400100 + 64 * instBytes;
    EXPECT_EQ(btc.predict(alias), invalidAddr);
}
