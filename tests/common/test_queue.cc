#include <gtest/gtest.h>

#include <deque>
#include <utility>

#include "common/queue.hh"

using namespace elfsim;

TEST(BoundedQueue, FifoOrder)
{
    BoundedQueue<int> q(4);
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, FullAndFree)
{
    BoundedQueue<int> q(2);
    EXPECT_EQ(q.freeSlots(), 2u);
    q.push(1);
    q.push(2);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.freeSlots(), 0u);
}

TEST(BoundedQueue, WrapsAround)
{
    BoundedQueue<int> q(3);
    for (int round = 0; round < 10; ++round) {
        q.push(round);
        q.push(round + 100);
        EXPECT_EQ(q.pop(), round);
        EXPECT_EQ(q.pop(), round + 100);
    }
    EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, IndexedAccess)
{
    BoundedQueue<int> q(4);
    q.push(10);
    q.push(20);
    q.push(30);
    q.pop();
    q.push(40); // storage wrapped
    EXPECT_EQ(q.at(0), 20);
    EXPECT_EQ(q.at(1), 30);
    EXPECT_EQ(q.at(2), 40);
    EXPECT_EQ(q.front(), 20);
    EXPECT_EQ(q.back(), 40);
}

TEST(BoundedQueue, PopBackSquashesYoungest)
{
    BoundedQueue<int> q(8);
    for (int i = 0; i < 6; ++i)
        q.push(i);
    q.popBack(4);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.back(), 1);
    // Pushing after a squash reuses the space.
    q.push(99);
    EXPECT_EQ(q.back(), 99);
}

TEST(BoundedQueue, ClearEmpties)
{
    BoundedQueue<int> q(4);
    q.push(1);
    q.push(2);
    q.clear();
    EXPECT_TRUE(q.empty());
    q.push(7);
    EXPECT_EQ(q.front(), 7);
}

namespace {

/**
 * Drive a queue of capacity @a cap through a fixed mix of pushes, pops
 * and tail squashes until its head has wrapped several times, and
 * check every front index against a model that tracks each element's
 * buffer position by hand.
 */
void
checkPositionsAcrossWraps(std::size_t cap)
{
    BoundedQueue<int> q(cap);
    std::deque<std::pair<int, std::size_t>> model; // value, position
    std::size_t head = 0; // position of the oldest element
    std::size_t wraps = 0;
    int next = 0;

    const auto check = [&] {
        ASSERT_EQ(q.size(), model.size());
        for (std::size_t i = 0; i < model.size(); ++i) {
            ASSERT_EQ(q.at(i), model[i].first) << "cap " << cap;
            ASSERT_EQ(q.posOf(i), model[i].second) << "cap " << cap;
            ASSERT_EQ(q.atPos(model[i].second), model[i].first);
            ASSERT_EQ(q.offsetOf(model[i].second), i);
        }
        for (std::size_t pos = 0; pos < cap; ++pos) {
            bool live = false;
            for (const auto &e : model)
                live |= e.second == pos;
            ASSERT_EQ(q.livePos(pos), live) << "cap " << cap
                                            << " pos " << pos;
            if (!live) {
                ASSERT_GE(q.offsetOf(pos), q.size());
            }
        }
        if (!model.empty()) {
            ASSERT_EQ(q.back(), model.back().first);
        }
    };

    for (unsigned step = 0; wraps < 4; ++step) {
        // Fill towards full, then drain part of the front; every third
        // round squash a few youngest and refill their positions.
        const std::size_t fill = q.freeSlots() - (step % 3 == 0 ? 0 : 1);
        for (std::size_t k = 0; k < fill; ++k) {
            const std::size_t pos = (head + model.size()) % cap;
            q.push(next);
            model.emplace_back(next++, pos);
        }
        check();
        if (step % 3 == 2 && model.size() >= 3) {
            const std::size_t reused = model[model.size() - 2].second;
            q.popBack(2);
            model.pop_back();
            model.pop_back();
            check();
            q.push(next);
            model.emplace_back(next++, reused);
            ASSERT_EQ(q.posOf(q.size() - 1), reused);
            check();
        }
        const std::size_t drain = model.size() / 2 + 1;
        for (std::size_t k = 0; k < drain; ++k) {
            ASSERT_EQ(q.pop(), model.front().first);
            model.pop_front();
            if (++head == cap) {
                head = 0;
                ++wraps;
            }
        }
        check();
    }
}

} // namespace

TEST(BoundedQueue, PositionsStayExactAcrossHeadWrapsCapacity5)
{
    checkPositionsAcrossWraps(5);
}

TEST(BoundedQueue, PositionsStayExactAcrossHeadWrapsCapacity100)
{
    checkPositionsAcrossWraps(100);
}

TEST(BoundedQueue, PushSlotAppendsInPlace)
{
    BoundedQueue<std::pair<int, int>> q(3);
    q.push({1, 1});
    q.pop();
    q.pushSlot() = {2, 20};
    std::pair<int, int> &slot = q.pushSlot();
    slot.first = 3;
    slot.second = 30;
    ASSERT_EQ(q.size(), 2u);
    EXPECT_EQ(q.front(), std::make_pair(2, 20));
    EXPECT_EQ(&q.back(), &slot);
    EXPECT_EQ(q.back(), std::make_pair(3, 30));
}
