#include <gtest/gtest.h>

#include "backend/mem_dep.hh"

using namespace elfsim;

TEST(MemDep, ColdMiss)
{
    MemDepPredictor mdp;
    EXPECT_EQ(mdp.storeFor(0x400100), invalidAddr);
}

TEST(MemDep, RecordsViolatingPair)
{
    MemDepPredictor mdp;
    mdp.train(0x400100, 0x400080);
    EXPECT_EQ(mdp.storeFor(0x400100), 0x400080u);
    EXPECT_EQ(mdp.stats().trainings, 1u);
}

TEST(MemDep, EntryAgesOutAfterUses)
{
    MemDepPredictor mdp(256, 4);
    mdp.train(0x400100, 0x400080);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(mdp.storeFor(0x400100), 0x400080u);
    // The 5th use expires the entry: a single violation must not
    // serialize a hot pair forever.
    EXPECT_EQ(mdp.storeFor(0x400100), invalidAddr);
    EXPECT_EQ(mdp.storeFor(0x400100), invalidAddr);
}

TEST(MemDep, RetrainingResetsAge)
{
    MemDepPredictor mdp(256, 4);
    mdp.train(0x400100, 0x400080);
    mdp.storeFor(0x400100);
    mdp.storeFor(0x400100);
    mdp.train(0x400100, 0x400080); // re-violation
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(mdp.storeFor(0x400100), 0x400080u);
    EXPECT_EQ(mdp.storeFor(0x400100), invalidAddr);
}

TEST(MemDep, DirectMappedConflict)
{
    MemDepPredictor mdp(16);
    const Addr a = 0x400000;
    const Addr b = a + 16 * instBytes; // same slot
    mdp.train(a, 0x111);
    mdp.train(b, 0x222);
    EXPECT_EQ(mdp.storeFor(a), invalidAddr);
    EXPECT_EQ(mdp.storeFor(b), 0x222u);
}

TEST(MemDep, ResetClears)
{
    MemDepPredictor mdp;
    mdp.train(0x400100, 0x400080);
    mdp.reset();
    EXPECT_EQ(mdp.storeFor(0x400100), invalidAddr);
}
