#include <gtest/gtest.h>

#include "common/queue.hh"
#include "core/coupled_predictors.hh"
#include "frontend/coupled.hh"
#include "frontend/supply.hh"
#include "workload/builders.hh"
#include "workload/oracle_stream.hh"
#include "workload/wrong_path.hh"

using namespace elfsim;

namespace {

struct Rig
{
    Program prog;
    OracleStream oracle;
    WrongPathWalker walker;
    InstSupply supply;
    MemHierarchy mem;
    CheckpointQueue ckpts;
    CoupledPredictors preds;
    ElfCoupledPolicy policy;
    FetchParams params{};
    CoupledFetchEngine eng;

    Rig(Program p, FrontendVariant v)
        : prog(std::move(p)), oracle(prog), walker(prog),
          supply(oracle, walker), mem(), ckpts(512), preds(),
          policy(v, preds), eng(params, mem, supply, ckpts, policy)
    {
        // Warm the first lines so fetch is not I-cache-stalled.
        mem.prefetchInst(prog.entryPC(), 0);
        mem.prefetchInst(prog.entryPC() + 64, 0);
        mem.prefetchInst(prog.entryPC() + 128, 0);
    }
};

/** A fetch buffer with room for every cycle a test runs. */
BoundedQueue<DynInst>
fetchBuffer()
{
    return BoundedQueue<DynInst>(256);
}

} // namespace

TEST(CoupledEngine, FetchesSequentialUntilDecision)
{
    // L-ELF: pure sequential run ending at the loop conditional.
    Rig r(microSequentialLoop(20, 8), FrontendVariant::LElf);
    r.eng.start(r.prog.entryPC(), 399);
    BoundedQueue<DynInst> out = fetchBuffer();
    for (Cycle c = 400; c < 410 && !r.eng.stalledOnControl(); ++c)
        r.eng.tick(c, out);
    ASSERT_TRUE(r.eng.stalledOnControl());
    // 20 filler + the conditional = 21 instructions fetched.
    EXPECT_EQ(out.size(), 21u);
    EXPECT_TRUE(out.back().fetchStalled);
    EXPECT_FALSE(out.back().hasPrediction);
}

TEST(CoupledEngine, FollowsUnconditionalsWithBubble)
{
    // A taken chain: every block's jump is followed at fetch with the
    // 1-cycle taken penalty, so throughput is ~blockLen+1 insts per
    // 2 cycles.
    Rig r(microTakenChain(4, 6), FrontendVariant::LElf);
    for (unsigned i = 0; i < 4; ++i)
        r.mem.prefetchInst(r.prog.entryPC() + 64 * i, 0);
    r.eng.start(r.prog.entryPC(), 399);
    BoundedQueue<DynInst> out = fetchBuffer();
    for (Cycle c = 400; c < 420; ++c)
        r.eng.tick(c, out);
    EXPECT_FALSE(r.eng.stalledOnControl());
    EXPECT_GT(out.size(), 20u);
    // Every 7th instruction is the followed jump.
    EXPECT_TRUE(out.at(6).isBranch());
    EXPECT_TRUE(out.at(6).hasPrediction);
    EXPECT_TRUE(out.at(6).predTaken);
    EXPECT_GT(r.eng.stats().takenBubbleCycles, 0u);
}

TEST(CoupledEngine, UElfSpeculatesPastSaturatedCond)
{
    Rig r(microSequentialLoop(20, 8), FrontendVariant::UElf);
    // Saturate the coupled bimodal for the loop conditional.
    const StaticInst *cond = nullptr;
    for (const StaticInst &si : r.prog.instructions()) {
        if (si.branch == BranchKind::CondDirect)
            cond = &si;
    }
    ASSERT_NE(cond, nullptr);
    for (int i = 0; i < 8; ++i)
        r.preds.bimodal().update(cond->pc, true);

    r.eng.start(r.prog.entryPC(), 399);
    BoundedQueue<DynInst> out = fetchBuffer();
    for (Cycle c = 400; c < 412; ++c)
        r.eng.tick(c, out);
    EXPECT_FALSE(r.eng.stalledOnControl());
    EXPECT_GT(out.size(), 21u) << "must speculate past the loop cond";
}

TEST(CoupledEngine, ChecksStallOnReturnWithoutRas)
{
    Rig r(microRecursion(6, 4), FrontendVariant::CondElf);
    r.eng.start(r.prog.entryPC(), 399);
    BoundedQueue<DynInst> out = fetchBuffer();
    for (Cycle c = 400; c < 430 && !r.eng.stalledOnControl(); ++c)
        r.eng.tick(c, out);
    // COND-ELF has no RAS: the first return (or the recursion guard
    // before bimodal saturation) must stall the engine.
    EXPECT_TRUE(r.eng.stalledOnControl());
}

TEST(CoupledEngine, StopDeactivates)
{
    Rig r(microSequentialLoop(20, 8), FrontendVariant::LElf);
    r.eng.start(r.prog.entryPC(), 399);
    BoundedQueue<DynInst> out = fetchBuffer();
    r.eng.tick(400, out);
    r.eng.stop();
    EXPECT_FALSE(r.eng.active());
    const auto sz = out.size();
    r.eng.tick(401, out);
    EXPECT_EQ(out.size(), sz);
}

TEST(CoupledEngine, ResumeAtClearsStall)
{
    Rig r(microSequentialLoop(20, 8), FrontendVariant::LElf);
    r.eng.start(r.prog.entryPC(), 399);
    BoundedQueue<DynInst> out = fetchBuffer();
    for (Cycle c = 400; c < 410 && !r.eng.stalledOnControl(); ++c)
        r.eng.tick(c, out);
    ASSERT_TRUE(r.eng.stalledOnControl());
    r.eng.resumeAt(r.prog.entryPC(), 420);
    EXPECT_FALSE(r.eng.stalledOnControl());
    const auto sz = out.size();
    r.eng.tick(421, out);
    EXPECT_GT(out.size(), sz);
}

TEST(CoupledEngine, BranchesClaimPendingCheckpoints)
{
    Rig r(microTakenChain(4, 6), FrontendVariant::LElf);
    r.eng.start(r.prog.entryPC(), 399);
    BoundedQueue<DynInst> out = fetchBuffer();
    r.eng.tick(400, out);
    bool sawBranch = false;
    out.forEach([&](const DynInst &di) {
        if (di.isBranch()) {
            sawBranch = true;
            EXPECT_NE(di.checkpointId, noCheckpoint);
            EXPECT_FALSE(r.ckpts.payloadReady(di.checkpointId))
                << "coupled checkpoints start payload-pending";
        }
    });
    EXPECT_TRUE(sawBranch);
}
