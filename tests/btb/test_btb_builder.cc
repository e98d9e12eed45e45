#include <gtest/gtest.h>

#include "btb/btb_builder.hh"
#include "common/serialize.hh"
#include "workload/builders.hh"
#include "workload/oracle_stream.hh"
#include "workload/program_builder.hh"

using namespace elfsim;

namespace {

/** Retire n architectural instructions through the builder. */
void
retireN(BtbBuilder &b, OracleStream &os, SeqNum n, SeqNum start = 1)
{
    for (SeqNum i = start; i < start + n; ++i) {
        const OracleInst &oi = os.at(i);
        b.retire(*oi.si, oi.taken, oi.nextPC);
        os.retireUpTo(i);
    }
}

} // namespace

TEST(BtbBuilder, EntryEndsOnUnconditional)
{
    // Blocks of 5 insts (4 filler + jump): entries should track 5
    // instructions and terminate with the unconditional in a slot.
    Program p = microTakenChain(4, 4);
    MultiBtb btb;
    BtbBuilder b(p, btb);
    OracleStream os(p);
    retireN(b, os, 40);

    const BtbLookupResult r = btb.lookup(p.entryPC());
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(r.entry.numInsts, 5);
    EXPECT_EQ(r.entry.termination, BtbTermination::Unconditional);
    ASSERT_NE(r.entry.terminatingUncond(), nullptr);
    EXPECT_EQ(r.entry.terminatingUncond()->offset, 4);
}

TEST(BtbBuilder, LongSequentialSplitsAt16)
{
    // One 40-instruction straight block ending in a loop branch:
    // entries of 16/16/9 instructions.
    Program p = microSequentialLoop(40, 8);
    MultiBtb btb;
    BtbBuilder b(p, btb);
    OracleStream os(p);
    retireN(b, os, 200);

    const BtbLookupResult r0 = btb.lookup(p.entryPC());
    ASSERT_TRUE(r0.hit);
    EXPECT_EQ(r0.entry.numInsts, 16);
    EXPECT_EQ(r0.entry.termination, BtbTermination::MaxInsts);

    const BtbLookupResult r1 = btb.lookup(r0.entry.fallthrough());
    ASSERT_TRUE(r1.hit);
    EXPECT_EQ(r1.entry.numInsts, 16);

    const BtbLookupResult r2 = btb.lookup(r1.entry.fallthrough());
    ASSERT_TRUE(r2.hit);
    // 40 filler + loop cond + exit-path jump = 42 insts: the third
    // entry covers 8 filler + the (observed-taken) conditional + the
    // unconditional jump that terminates it.
    EXPECT_EQ(r2.entry.numInsts, 10);
    EXPECT_EQ(r2.entry.termination, BtbTermination::Unconditional);
    EXPECT_EQ(r2.entry.numSlots(), 2u);
}

TEST(BtbBuilder, NeverTakenCondClaimsNoSlot)
{
    // A conditional that is never taken must not occupy a slot and
    // must not terminate the entry.
    ProgramBuilder pb;
    pb.beginBlock();
    pb.addFiller(3);
    CondSpec never;
    never.kind = CondKind::LoopPeriod;
    never.period = 1; // never taken
    pb.endCond(never, 0);
    pb.beginBlock();
    pb.addFiller(2);
    pb.endJump(0);
    Program p = pb.finalize("t");

    MultiBtb btb;
    BtbBuilder b(p, btb);
    OracleStream os(p);
    retireN(b, os, 30);

    const BtbLookupResult r = btb.lookup(p.entryPC());
    ASSERT_TRUE(r.hit);
    // Entry covers filler+cond+filler+jump = 7 insts, with only the
    // jump in a slot.
    EXPECT_EQ(r.entry.numInsts, 7);
    EXPECT_EQ(r.entry.numSlots(), 1u);
    EXPECT_EQ(r.entry.slots[0].kind, BranchKind::UncondDirect);
}

TEST(BtbBuilder, AmendmentShortensEntryWhenCondTurnsTaken)
{
    // A conditional taken only every 8th time: initially no slot;
    // once taken, the rebuilt entry tracks it.
    ProgramBuilder pb;
    pb.beginBlock();
    pb.addFiller(3);
    CondSpec c;
    c.kind = CondKind::LoopPeriod;
    c.period = 1; // never taken...
    pb.endCond(c, 1);
    pb.beginBlock();
    pb.addFiller(2);
    pb.endJump(0);
    Program p = pb.finalize("t");

    // Manually drive the builder: the conditional retires not-taken a
    // few times, then taken once.
    MultiBtb btb;
    BtbBuilder b(p, btb);
    const StaticInst *cond = p.instAt(p.entryPC() + instsToBytes(3));
    ASSERT_NE(cond, nullptr);
    ASSERT_EQ(cond->branch, BranchKind::CondDirect);

    OracleStream os(p);
    retireN(b, os, 14); // two loop iterations, cond never taken
    EXPECT_EQ(btb.lookup(p.entryPC()).entry.numSlots(), 1u);

    // Now force the amendment path directly.
    b.retire(*p.instAt(p.entryPC()), false, p.entryPC() + 4);
    b.retire(*cond, true, cond->directTarget);
    EXPECT_GE(b.stats().amendments, 1u);
    EXPECT_TRUE(b.observedTaken(cond->pc));

    const BtbLookupResult r = btb.lookup(p.entryPC());
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(r.entry.numSlots(), 2u); // cond now tracked + jump
}

TEST(BtbBuilder, ThirdTakenConditionalEndsEntry)
{
    // Three frequently-taken conditionals in a 10-inst straight run:
    // the entry must end before the third (slot pressure).
    ProgramBuilder pb;
    const auto b0 = pb.beginBlock();
    pb.addFiller(1);
    CondSpec half;
    half.kind = CondKind::Pattern;
    half.period = 2;
    half.seed = 3;
    pb.endCond(half, 1);
    pb.beginBlock();
    pb.addFiller(1);
    pb.endCond(half, 2);
    pb.beginBlock();
    pb.addFiller(1);
    pb.endCond(half, 3);
    pb.beginBlock();
    pb.addFiller(1);
    pb.endJump(b0);
    Program p = pb.finalize("t");

    MultiBtb btb;
    BtbBuilder b(p, btb);
    // Mark all three conditionals observed-taken via direct retires.
    const StaticInst *c1 = &p.instructions()[1];
    const StaticInst *c2 = &p.instructions()[3];
    const StaticInst *c3 = &p.instructions()[5];
    b.retire(p.instructions()[0], false, c1->pc);
    b.retire(*c1, true, c1->directTarget);
    b.retire(p.instructions()[2], false, c2->pc);
    b.retire(*c2, true, c2->directTarget);
    b.retire(p.instructions()[4], false, c3->pc);
    b.retire(*c3, true, c3->directTarget);

    const BtbEntry e = b.buildEntry(p.entryPC());
    EXPECT_EQ(e.termination, BtbTermination::SlotPressure);
    // Covers insts 0..4 (the third tracked cond at offset 5 is out).
    EXPECT_EQ(e.numInsts, 5);
    EXPECT_EQ(e.numSlots(), 2u);
}

TEST(BtbBuilder, EstablishmentsFollowCommitStream)
{
    Program p = microTakenChain(8, 6);
    MultiBtb btb;
    BtbBuilder b(p, btb);
    OracleStream os(p);
    retireN(b, os, 7 * 8 * 3); // three laps around the ring
    // Every block start should now be established.
    for (const BlockInfo &blk : p.blocks()) {
        const Addr start =
            p.codeBase() + instsToBytes(blk.firstInst);
        EXPECT_TRUE(btb.lookup(start).hit) << std::hex << start;
    }
}

TEST(BtbBuilder, WarmStateRoundTripsThroughOneVisitor)
{
    Program p = microTakenChain(4, 4);
    MultiBtb btb;
    BtbBuilder b(p, btb);
    OracleStream os(p);
    retireN(b, os, 40);
    Serializer s;
    s(b);

    MultiBtb btb2;
    BtbBuilder loaded(p, btb2);
    Deserializer d(s.data());
    d(loaded);
    d.expectEnd();
    EXPECT_EQ(loaded.stats().establishments, b.stats().establishments);
    Serializer again;
    again(loaded);
    EXPECT_EQ(again.data(), s.data());
}

// The taken set's length is checked against the bytes left before the
// set reserves anything: 2^40 entries is a ParseError, not bad_alloc.
TEST(BtbBuilder, TakenSetLengthBeyondThePayloadIsAParseError)
{
    Program p = microTakenChain(4, 4);
    MultiBtb btb;
    BtbBuilder b(p, btb);
    Serializer s;
    s.u64(std::uint64_t(1) << 40);
    for (int i = 0; i < 5; ++i) // region state and counters
        s.u64(0);
    Deserializer d(s.data());
    EXPECT_THROW(d(b), ParseError);
}
