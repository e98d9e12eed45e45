#include <gtest/gtest.h>

#include "bpred/checkpoint.hh"

using namespace elfsim;

TEST(CheckpointQueue, AllocateAndFind)
{
    CheckpointQueue q(8);
    const auto a = q.allocate(10);
    const auto b = q.allocate(20);
    EXPECT_TRUE(q.has(a));
    EXPECT_TRUE(q.has(b));
    EXPECT_NE(a, noCheckpoint);
    EXPECT_NE(a, b);
}

TEST(CheckpointQueue, FullBlocksAllocation)
{
    CheckpointQueue q(2);
    q.allocate(1);
    q.allocate(2);
    EXPECT_TRUE(q.full());
}

TEST(CheckpointQueue, RetireFreesHead)
{
    CheckpointQueue q(2);
    const auto a = q.allocate(1);
    q.allocate(2);
    q.retireUpTo(1);
    EXPECT_FALSE(q.full());
    EXPECT_FALSE(q.has(a));
    q.allocate(3);
    EXPECT_TRUE(q.full());
}

TEST(CheckpointQueue, SquashDropsTailAndReusesIds)
{
    CheckpointQueue q(8);
    const auto a = q.allocate(10);
    const auto b = q.allocate(20);
    const auto c = q.allocate(30);
    q.squashYoungerThan(15);
    EXPECT_TRUE(q.has(a));
    EXPECT_FALSE(q.has(b));
    EXPECT_FALSE(q.has(c));
    // Fresh allocation after squash remains findable.
    const auto d = q.allocate(16);
    EXPECT_TRUE(q.has(d));
    EXPECT_TRUE(q.has(a));
}

TEST(CheckpointQueue, PayloadPendingLifecycle)
{
    CheckpointQueue q(8);
    const auto a = q.allocate(10, /*payload_valid=*/false);
    EXPECT_TRUE(q.has(a));
    EXPECT_FALSE(q.payloadReady(a));
    q.fillPayload(a);
    EXPECT_TRUE(q.payloadReady(a));
}

TEST(CheckpointQueue, FillPayloadsUpToSeq)
{
    CheckpointQueue q(8);
    const auto a = q.allocate(10, false);
    const auto b = q.allocate(20, false);
    const auto c = q.allocate(30, false);
    q.fillPayloadsUpTo(20);
    EXPECT_TRUE(q.payloadReady(a));
    EXPECT_TRUE(q.payloadReady(b));
    EXPECT_FALSE(q.payloadReady(c));
}

TEST(CheckpointQueue, MixedRetireSquashStress)
{
    CheckpointQueue q(16);
    std::vector<std::uint64_t> live;
    SeqNum seq = 0;
    for (int round = 0; round < 50; ++round) {
        while (!q.full())
            live.push_back(q.allocate(++seq));
        q.retireUpTo(seq - 8);
        q.squashYoungerThan(seq - 4);
        seq = seq - 4;
        live.clear();
        // Queue must stay internally consistent: allocate works.
        const auto id = q.allocate(++seq);
        EXPECT_TRUE(q.has(id));
    }
}

namespace {

/** A TAGE lookup distinguishable by its base index. */
TagePrediction
tageLookup(std::uint32_t base_index)
{
    TagePrediction tp;
    tp.valid = true;
    tp.taken = true;
    tp.baseIndex = base_index;
    return tp;
}

} // namespace

TEST(CheckpointQueue, ReallocatedSquashedIdStartsWithAnEmptyPayload)
{
    CheckpointQueue q(4);
    const auto a = q.allocate(10);
    const auto b = q.allocate(20);
    q.payload(b).tage = tageLookup(7);
    q.payload(b).ittage.valid = true;
    q.payload(b).ittage.target = 0x4000;
    q.squashYoungerThan(15);

    // The squashed id comes back, owned by a different branch.
    const auto c = q.allocate(16);
    ASSERT_EQ(c, b);
    EXPECT_FALSE(q.payload(c).tage.valid);
    EXPECT_EQ(q.payload(c).tage.baseIndex, 0u);
    EXPECT_FALSE(q.payload(c).ittage.valid);
    EXPECT_EQ(q.payload(c).ittage.target, invalidAddr);
    EXPECT_FALSE(q.payload(a).tage.valid);
}

TEST(CheckpointQueue, LivePayloadSurvivesYoungerSquashesAndOlderRetires)
{
    // Capacity 4: once the older branch retires, the ids of later
    // rounds wrap onto every other slot. The live branch must keep its
    // own payload while its neighbours' slots are cleared and reused.
    CheckpointQueue q(4);
    SeqNum seq = 1;
    q.allocate(seq++);
    const auto live = q.allocate(seq++);
    const SeqNum liveSeq = seq - 1;
    q.payload(live).tage = tageLookup(42);
    q.payload(live).ittage.valid = true;
    q.payload(live).ittage.target = 0x8000;

    for (int round = 0; round < 6; ++round) {
        if (round == 2)
            q.retireUpTo(liveSeq - 1);
        while (!q.full()) {
            const auto id = q.allocate(seq++);
            EXPECT_FALSE(q.payload(id).tage.valid);
            q.payload(id).tage = tageLookup(1000 + round);
        }
        q.squashYoungerThan(liveSeq);
        ASSERT_TRUE(q.has(live));
        EXPECT_EQ(q.payload(live).tage.baseIndex, 42u) << round;
        EXPECT_EQ(q.payload(live).ittage.target, 0x8000u) << round;
    }
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.payload(live).tage.valid);
    EXPECT_TRUE(q.payload(live).ittage.valid);
    q.retireUpTo(liveSeq);
    EXPECT_FALSE(q.has(live));
}
