#include <gtest/gtest.h>

#include "frontend/faq.hh"

using namespace elfsim;

namespace {

FaqEntry
makeEntry(Addr start, unsigned n)
{
    FaqEntry e;
    e.startPC = start;
    e.numInsts = static_cast<std::uint8_t>(n);
    e.nextPC = start + instsToBytes(n);
    return e;
}

} // namespace

TEST(Faq, FifoBasics)
{
    Faq q(4);
    EXPECT_TRUE(q.empty());
    q.push(makeEntry(0x1000, 8));
    q.push(makeEntry(0x2000, 4));
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.front().startPC, 0x1000u);
    EXPECT_EQ(q.pop().startPC, 0x1000u);
    EXPECT_EQ(q.front().startPC, 0x2000u);
}

TEST(Faq, BranchAtFindsSlotByOffset)
{
    FaqEntry e = makeEntry(0x1000, 16);
    e.branches[0].valid = true;
    e.branches[0].offset = 3;
    e.branches[0].kind = BranchKind::CondDirect;
    e.branches[1].valid = true;
    e.branches[1].offset = 9;
    e.branches[1].kind = BranchKind::UncondDirect;

    EXPECT_EQ(e.branchAt(0), nullptr);
    ASSERT_NE(e.branchAt(3), nullptr);
    EXPECT_EQ(e.branchAt(3)->kind, BranchKind::CondDirect);
    ASSERT_NE(e.branchAt(9), nullptr);
    EXPECT_EQ(e.branchAt(9)->kind, BranchKind::UncondDirect);
}

TEST(Faq, TakenBranchOnlyWhenBlockEndsTaken)
{
    FaqEntry e = makeEntry(0x1000, 10);
    e.branches[0].valid = true;
    e.branches[0].offset = 9;
    e.branches[0].predTaken = true;
    EXPECT_EQ(e.takenBranch(), nullptr); // endCause is Sequential
    e.endCause = FaqBlockEnd::TakenBranch;
    ASSERT_NE(e.takenBranch(), nullptr);
    EXPECT_EQ(e.takenBranch()->offset, 9);
}

TEST(Faq, AdvanceDropsPrefixAndShiftsSlots)
{
    FaqEntry e = makeEntry(0x1000, 12);
    e.branches[0].valid = true;
    e.branches[0].offset = 2;
    e.branches[1].valid = true;
    e.branches[1].offset = 8;

    e.advance(4);
    EXPECT_EQ(e.startPC, 0x1000u + 16);
    EXPECT_EQ(e.numInsts, 8);
    EXPECT_FALSE(e.branches[0].valid); // offset 2 dropped
    EXPECT_TRUE(e.branches[1].valid);
    EXPECT_EQ(e.branches[1].offset, 4); // 8 - 4

    e.advance(20);
    EXPECT_EQ(e.numInsts, 0);
}

TEST(Faq, AdvanceZeroIsNoop)
{
    FaqEntry e = makeEntry(0x1000, 12);
    e.advance(0);
    EXPECT_EQ(e.startPC, 0x1000u);
    EXPECT_EQ(e.numInsts, 12);
}

TEST(Faq, VersionMovesOnEveryChangeToTheQueuedBlocks)
{
    Faq q(4);
    std::uint64_t v = q.version();
    const auto moved = [&] {
        const bool m = q.version() != v;
        v = q.version();
        return m;
    };
    q.push(makeEntry(0x1000, 8));
    EXPECT_TRUE(moved());
    q.push(makeEntry(0x2000, 4));
    EXPECT_TRUE(moved());
    EXPECT_EQ(q.front().startPC, 0x1000u);
    EXPECT_EQ(q.at(1).startPC, 0x2000u);
    EXPECT_FALSE(moved()); // reads leave it alone

    q.advanceFront(3);
    EXPECT_TRUE(moved());
    EXPECT_EQ(q.front().startPC, 0x1000u + instsToBytes(3));
    EXPECT_EQ(q.front().numInsts, 5);
    q.pop();
    EXPECT_TRUE(moved());
    q.clear();
    EXPECT_TRUE(moved());
}
