#include <gtest/gtest.h>

#include "bpred/predictor_bank.hh"
#include "cache/hierarchy.hh"
#include "common/queue.hh"
#include "frontend/decode.hh"
#include "frontend/fetch.hh"
#include "frontend/supply.hh"
#include "workload/builders.hh"
#include "workload/oracle_stream.hh"
#include "workload/wrong_path.hh"

using namespace elfsim;

namespace {

/** Everything a front-end slice needs. */
struct Rig
{
    Program prog;
    OracleStream oracle;
    WrongPathWalker walker;
    InstSupply supply;
    MemHierarchy mem;
    CheckpointQueue ckpts;
    Faq faq;
    FetchParams params{};
    DecoupledFetchEngine fetch;

    explicit Rig(Program p)
        : prog(std::move(p)), oracle(prog), walker(prog),
          supply(oracle, walker), mem(), ckpts(512), faq(32),
          fetch(params, mem, supply, faq, ckpts)
    {
    }

    /** Push a sequential FAQ block visible immediately. */
    void
    pushBlock(Addr start, unsigned n, Cycle gen = 0,
              bool from_btb_miss = false)
    {
        FaqEntry e;
        e.genCycle = gen;
        e.startPC = start;
        e.numInsts = static_cast<std::uint8_t>(n);
        e.nextPC = start + instsToBytes(n);
        e.fromBtbMiss = from_btb_miss;
        faq.push(e);
    }
};

/** A fetch buffer with room for many fetch cycles. */
BoundedQueue<DynInst>
fetchBuffer()
{
    return BoundedQueue<DynInst>(64);
}

} // namespace

TEST(FetchEngine, FetchesWidthFromOneBlock)
{
    Rig r(microSequentialLoop(40, 16));
    r.pushBlock(r.prog.entryPC(), 16);
    // Warm the L0I first (cold access stalls).
    r.mem.prefetchInst(r.prog.entryPC(), 0);
    r.mem.prefetchInst(r.prog.entryPC() + 64, 0);

    BoundedQueue<DynInst> out = fetchBuffer();
    const unsigned n = r.fetch.tick(400, 0, out);
    EXPECT_EQ(n, 8u);
    for (unsigned i = 0; i < n; ++i) {
        EXPECT_EQ(out.at(i).pc(), r.prog.entryPC() + instsToBytes(i));
        EXPECT_FALSE(out.at(i).wrongPath);
        EXPECT_EQ(out.at(i).mode, FetchMode::Decoupled);
    }
}

TEST(FetchEngine, ColdMissStallsFetch)
{
    Rig r(microSequentialLoop(40, 16));
    r.pushBlock(r.prog.entryPC(), 16);
    BoundedQueue<DynInst> out = fetchBuffer();
    EXPECT_EQ(r.fetch.tick(1, 0, out), 0u);
    EXPECT_TRUE(r.fetch.stalled(2));
}

TEST(FetchEngine, RespectsFaqVisibilityLatency)
{
    Rig r(microSequentialLoop(40, 16));
    r.pushBlock(r.prog.entryPC(), 16, /*gen=*/400);
    r.mem.prefetchInst(r.prog.entryPC(), 0); // fill completes ~301
    BoundedQueue<DynInst> out = fetchBuffer();
    // At cycle 401 the block (gen 400, BP1->FE 3) is not yet visible.
    EXPECT_EQ(r.fetch.tick(401, 3, out), 0u);
    EXPECT_GT(r.fetch.tick(403, 3, out), 0u);
}

TEST(FetchEngine, WrongPathLatchesOnDivergentBlock)
{
    // Two contiguous blocks of 7 insts; the wrap-around jump at
    // instruction 13 goes back to the entry, so a sequential FAQ
    // block diverges from the oracle right after it.
    Rig r(microTakenChain(2, 6));
    r.pushBlock(r.prog.entryPC(), 16);
    r.mem.prefetchInst(r.prog.entryPC(), 0);
    r.mem.prefetchInst(r.prog.entryPC() + 64, 0);
    BoundedQueue<DynInst> out = fetchBuffer();
    r.fetch.tick(400, 0, out);
    r.fetch.tick(401, 0, out);
    ASSERT_GE(out.size(), 15u);
    EXPECT_FALSE(out.at(13).wrongPath);
    EXPECT_TRUE(out.at(13).taken);
    EXPECT_TRUE(out.at(14).wrongPath);
    EXPECT_TRUE(r.supply.onWrongPath());
}

TEST(FetchEngine, MispredictFlaggedAgainstOracle)
{
    Rig r(microTakenChain(2, 2));
    // The block's branch (offset 2) predicted NOT taken although the
    // oracle says taken.
    FaqEntry e;
    e.startPC = r.prog.entryPC();
    e.numInsts = 16;
    e.nextPC = e.startPC + instsToBytes(16);
    e.branches[0].valid = true;
    e.branches[0].offset = 2;
    e.branches[0].kind = BranchKind::UncondDirect;
    e.branches[0].predTaken = false;
    r.faq.push(e);
    r.mem.prefetchInst(r.prog.entryPC(), 0);

    BoundedQueue<DynInst> out = fetchBuffer();
    r.fetch.tick(400, 0, out);
    ASSERT_GE(out.size(), 3u);
    EXPECT_TRUE(out.at(2).isBranch());
    EXPECT_TRUE(out.at(2).hasPrediction);
    EXPECT_TRUE(out.at(2).mispredict);
}

TEST(FetchEngine, ChecksCheckpointCapacity)
{
    Rig small(microTakenChain(8, 0)); // branch-only ring
    // Exhaust the checkpoint queue first.
    while (!small.ckpts.full())
        small.ckpts.allocate(1);
    small.pushBlock(small.prog.entryPC(), 8);
    small.mem.prefetchInst(small.prog.entryPC(), 0);
    BoundedQueue<DynInst> out = fetchBuffer();
    EXPECT_EQ(small.fetch.tick(300, 0, out), 0u);
}

TEST(DecodeStage, ResteersOnUncoveredUncond)
{
    Rig r(microTakenChain(2, 4)); // 5-inst blocks
    PredictorBank bank;
    DecodeStage dec(8, bank);

    // Fetch through a BTB-miss sequential block: the jump at offset 4
    // is uncovered.
    r.pushBlock(r.prog.entryPC(), 16, 0, true);
    r.mem.prefetchInst(r.prog.entryPC(), 0);
    r.mem.prefetchInst(r.prog.entryPC() + 64, 0);
    BoundedQueue<DynInst> buf(24);
    r.fetch.tick(400, 0, buf);
    r.fetch.tick(401, 0, buf);
    buf.forEach([](DynInst &di) { di.readyAt = 402; });

    Redirect resteer;
    const unsigned decoded = dec.tick(402, buf, resteer);
    ASSERT_TRUE(resteer.pending());
    EXPECT_EQ(resteer.kind, RedirectKind::DecodeResteer);
    // The jump sits at offset 4; its decoded target is block 1.
    EXPECT_EQ(resteer.targetPC,
              r.prog.entryPC() + instsToBytes(5));
    // Decode stopped at the resteering branch, which it decoded in
    // place; the younger instructions are still queued behind it.
    ASSERT_EQ(decoded, 5u);
    EXPECT_GT(buf.size(), decoded);
    const DynInst &jump = buf.at(decoded - 1);
    EXPECT_TRUE(jump.isBranch());
    EXPECT_TRUE(jump.hasPrediction);
    EXPECT_FALSE(jump.mispredict);
}

TEST(DecodeStage, NoResteerForCoveredBranches)
{
    Rig r(microTakenChain(2, 4));
    PredictorBank bank;
    DecodeStage dec(8, bank);

    FaqEntry e;
    e.startPC = r.prog.entryPC();
    e.numInsts = 5;
    e.endCause = FaqBlockEnd::TakenBranch;
    e.branches[0].valid = true;
    e.branches[0].offset = 4;
    e.branches[0].kind = BranchKind::UncondDirect;
    e.branches[0].predTaken = true;
    e.branches[0].target = r.prog.entryPC() + instsToBytes(5);
    e.nextPC = e.branches[0].target;
    r.faq.push(e);
    r.mem.prefetchInst(r.prog.entryPC(), 0);

    BoundedQueue<DynInst> buf(24);
    r.fetch.tick(400, 0, buf);
    buf.forEach([](DynInst &di) { di.readyAt = 401; });
    Redirect resteer;
    EXPECT_EQ(dec.tick(401, buf, resteer), buf.size());
    EXPECT_FALSE(resteer.pending());
}
