#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/logging.hh"
#include "core/coupled_predictors.hh"
#include "core/elf_controller.hh"
#include "sim/core.hh"
#include "workload/builders.hh"
#include "workload/catalog.hh"
#include "workload/oracle_stream.hh"
#include "workload/wrong_path.hh"

using namespace elfsim;

TEST(Variant, Predicates)
{
    EXPECT_FALSE(isElf(FrontendVariant::NoDcf));
    EXPECT_FALSE(isElf(FrontendVariant::Dcf));
    EXPECT_TRUE(isElf(FrontendVariant::LElf));
    EXPECT_TRUE(isElf(FrontendVariant::UElf));

    EXPECT_TRUE(hasCoupledRas(FrontendVariant::RetElf));
    EXPECT_TRUE(hasCoupledRas(FrontendVariant::UElf));
    EXPECT_FALSE(hasCoupledRas(FrontendVariant::CondElf));
    EXPECT_FALSE(hasCoupledRas(FrontendVariant::LElf));

    EXPECT_TRUE(hasCoupledBtc(FrontendVariant::IndElf));
    EXPECT_FALSE(hasCoupledBtc(FrontendVariant::RetElf));
    EXPECT_TRUE(hasCoupledBimodal(FrontendVariant::CondElf));
    EXPECT_FALSE(hasCoupledBimodal(FrontendVariant::IndElf));
}

TEST(CoupledPredictors, StorageUnderTwoKb)
{
    // Paper Table II: the total storage cost of U-ELF's coupled
    // predictors is smaller than 2KB.
    CoupledPredictors cp;
    EXPECT_LT(cp.storageBytes(), 2048.0);
}

TEST(CoupledPredictors, TrainsOnlyCoupledModeBranches)
{
    CoupledPredictors cp;
    const Addr pc = 0x400100;
    for (int i = 0; i < 8; ++i) {
        cp.trainCommit(pc, BranchKind::CondDirect, true, 0x500000,
                       FetchMode::Decoupled);
    }
    EXPECT_FALSE(cp.bimodal().saturated(pc) && cp.bimodal().predict(pc))
        << "decoupled-mode commits must not train the coupled bimodal";
    for (int i = 0; i < 8; ++i) {
        cp.trainCommit(pc, BranchKind::CondDirect, true, 0x500000,
                       FetchMode::Coupled);
    }
    EXPECT_TRUE(cp.bimodal().predict(pc));
}

TEST(ElfCoupledPolicy, CondRequiresSaturation)
{
    CoupledPredictors cp;
    ElfCoupledPolicy pol(FrontendVariant::CondElf, cp);
    StaticInst si;
    si.pc = 0x400200;
    si.cls = InstClass::Branch;
    si.branch = BranchKind::CondDirect;
    si.directTarget = 0x500000;
    DynInst di;
    di.si = &si;

    // Unsaturated counter: no speculation.
    cp.bimodal().update(si.pc, true);
    EXPECT_FALSE(pol.predictCond(di));

    for (int i = 0; i < 8; ++i)
        cp.bimodal().update(si.pc, true);
    EXPECT_TRUE(pol.predictCond(di));
    EXPECT_TRUE(di.predTaken);
    EXPECT_EQ(di.predTarget, 0x500000u);
}

TEST(ElfCoupledPolicy, VariantGatesEachPredictor)
{
    CoupledPredictors cp;
    cp.ras().push(0xabcd);
    cp.btc().update(0x400300, 0x600000);
    for (int i = 0; i < 8; ++i)
        cp.bimodal().update(0x400400, true);

    StaticInst ret;
    ret.pc = 0x400310;
    ret.cls = InstClass::Branch;
    ret.branch = BranchKind::Return;
    StaticInst ind;
    ind.pc = 0x400300;
    ind.cls = InstClass::Branch;
    ind.branch = BranchKind::IndirectJump;

    DynInst di;
    di.si = &ret;
    ElfCoupledPolicy retPol(FrontendVariant::RetElf, cp);
    EXPECT_TRUE(retPol.predictReturn(di));
    EXPECT_EQ(di.predTarget, 0xabcdu);
    DynInst di2;
    di2.si = &ind;
    EXPECT_FALSE(retPol.predictIndirect(di2));

    ElfCoupledPolicy indPol(FrontendVariant::IndElf, cp);
    DynInst di3;
    di3.si = &ind;
    EXPECT_TRUE(indPol.predictIndirect(di3));
    EXPECT_EQ(di3.predTarget, 0x600000u);
    DynInst di4;
    di4.si = &ret;
    EXPECT_FALSE(indPol.predictReturn(di4));
}

TEST(ElfController, ModeResidencyAndResync)
{
    // A predictable loop: periods should be rare (few flushes) and
    // short; decoupled mode dominates.
    Program p = microSequentialLoop(30, 16);
    SimConfig cfg = makeConfig(FrontendVariant::UElf);
    Core core(cfg, p);
    core.run(60000);
    const ElfStats &st = core.elf().stats();
    EXPECT_GT(st.decoupledCycles, 5 * st.coupledCycles);
    // Every completed period ends with a resynchronization (the run
    // may stop mid-period).
    EXPECT_GE(st.coupledPeriods, st.switches);
    EXPECT_LE(st.coupledPeriods, st.switches + 1);
}

TEST(ElfController, StallsWithoutPredictorsResyncViaFaq)
{
    // Random branches force flushes; L-ELF must stall at each cond
    // and resynchronize through the FAQ counts.
    Program p = microRandomBranchLoop(8, 0.4);
    SimConfig cfg = makeConfig(FrontendVariant::LElf);
    Core core(cfg, p);
    core.run(60000);
    const ElfStats &st = core.elf().stats();
    EXPECT_GT(st.coupledPeriods, 100u);
    EXPECT_GT(core.elf().coupledEngine().stats().controlStalls, 100u);
    EXPECT_GT(st.switches, 100u);
    // The measurement must match DCF's committed behaviour.
    EXPECT_GT(core.committed(), 59999u);
}

// With a ROB this small, coupled instructions commit before the
// catching-up DCF produces their records, so the divergence tracker
// can pair a survivor that has already retired. Its flush must resume
// at the next architectural instruction: not behind the committed
// state (the supply then asked the oracle for a retired index), and
// not off the architectural path after it (no branch is left in
// flight to recover, and a wrong-path instruction reaches commit).
TEST(ElfController, DivergenceFlushNeverResteersBehindCommit)
{
    struct Case
    {
        const char *workload;
        FrontendVariant variant;
        unsigned robEntries;
    };
    const Case cases[] = {
        {"605.mcf", FrontendVariant::UElf, 16},
        {"srv1.subtest_1", FrontendVariant::UElf, 16},
        {"473.astar", FrontendVariant::UElf, 16},
        {"605.mcf", FrontendVariant::UElf, 12},
        {"605.mcf", FrontendVariant::UElf, 9},
        {"605.mcf", FrontendVariant::LElf, 9},
    };
    ScopedRecoverableErrors recoverable; // a panic fails the case only
    for (const Case &c : cases) {
        const WorkloadSpec *w = findWorkload(c.workload);
        ASSERT_NE(w, nullptr) << c.workload;
        const Program p = buildWorkload(*w);
        SimConfig cfg = makeConfig(c.variant);
        cfg.backend.robEntries = c.robEntries;
        Core core(cfg, p);
        const std::string name = std::string(c.workload) + " variant " +
                                 std::to_string(int(c.variant)) +
                                 " rob " + std::to_string(c.robEntries);
        try {
            for (int k = 0; k < 40; ++k)
                core.run(1000);
        } catch (const SimError &e) {
            ADD_FAILURE() << name << ": " << e.what();
            continue;
        }
        EXPECT_GE(core.committed(), 40000u) << name;
        EXPECT_GT(core.stats().divergenceFlushes, 0u) << name;
    }
}

TEST(ElfController, CheckpointPayloadsEventuallyFill)
{
    Program p = microRandomBranchLoop(8, 0.4);
    SimConfig cfg = makeConfig(FrontendVariant::UElf);
    Core core(cfg, p);
    core.run(60000);
    // Flushes held for pending payloads must be bounded (they fill at
    // resync or the branch reaches the ROB head).
    EXPECT_LT(core.stats().pendingFlushWaits, core.cycles() / 10);
}

TEST(ElfController, PrefetchRescansWhenAQueuedLineLeavesTheL0i)
{
    // Every queued block's line present: the scan finds nothing and
    // is not repeated while the queue and the L0I stay unchanged.
    // Evicting one of those lines (demand fills into its set) must
    // make the next idle cycle prefetch it again, with the FAQ
    // untouched; a newly queued block is prefetched too.
    const Program prog = microSequentialLoop(40, 16);
    OracleStream oracle(prog);
    WrongPathWalker walker(prog);
    InstSupply supply(oracle, walker);
    MemHierarchy mem;
    CheckpointQueue ckpts(512);
    Faq faq(32);
    PredictorBank bank;
    MultiBtb btb;
    ElfController ctl(ElfControllerParams{}, mem, supply, faq, ckpts,
                      bank, btb);

    const Addr a = 0x100000, b = 0x100040;
    const auto block = [](Addr pc) {
        FaqEntry e;
        e.startPC = pc;
        e.numInsts = 16;
        e.nextPC = pc + instsToBytes(16);
        return e;
    };
    faq.push(block(a));
    faq.push(block(b));
    mem.prefetchInst(a, 0);
    mem.prefetchInst(b, 0);

    Cycle now = 100;
    for (int i = 0; i < 3; ++i)
        ctl.prefetchTick(++now, true);
    EXPECT_EQ(ctl.stats().instPrefetches, 0u);

    // Same L0I set as a (sets x line bytes apart), filled by demand
    // fetches until a, the least recently used way, is evicted.
    const CacheParams &l0i = mem.l0i().config();
    const Addr setStride = l0i.sizeBytes / l0i.assoc;
    for (unsigned w = 1; w <= l0i.assoc; ++w)
        mem.instFetch(a + w * setStride, now);
    ASSERT_FALSE(mem.l0i().present(a));
    ASSERT_TRUE(mem.l0i().present(b));

    ctl.prefetchTick(now + 20, true);
    EXPECT_EQ(ctl.stats().instPrefetches, 1u);
    EXPECT_TRUE(mem.l0i().present(a));
    ctl.prefetchTick(now + 30, true); // covered again
    EXPECT_EQ(ctl.stats().instPrefetches, 1u);

    const Addr c = 0x180000;
    faq.push(block(c));
    ctl.prefetchTick(now + 40, true);
    EXPECT_EQ(ctl.stats().instPrefetches, 2u);
    EXPECT_TRUE(mem.l0i().present(c));
}
