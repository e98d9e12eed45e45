#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/stat_fields.hh"
#include "sim/core.hh"
#include "sim/runner.hh"
#include "workload/builders.hh"
#include "workload/catalog.hh"
#include "workload/program_builder.hh"

using namespace elfsim;

namespace {

RunOptions
quick()
{
    RunOptions o;
    o.warmupInsts = 20000;
    o.measureInsts = 50000;
    return o;
}

} // namespace

class CoreAllVariants
    : public ::testing::TestWithParam<FrontendVariant>
{};

TEST_P(CoreAllVariants, RunsSequentialLoop)
{
    Program p = microSequentialLoop(30, 16);
    const RunResult r = runVariant(p, GetParam(), quick());
    // Commit retires up to commitWidth per cycle, so the measurement
    // window can overshoot the target by a few instructions.
    EXPECT_GE(r.insts, 50000u);
    EXPECT_LT(r.insts, 50016u);
    EXPECT_GT(r.ipc, 0.5) << variantName(GetParam());
    EXPECT_LT(r.ipc, 9.0);
}

TEST_P(CoreAllVariants, RunsTakenChain)
{
    Program p = microTakenChain(16, 6);
    const RunResult r = runVariant(p, GetParam(), quick());
    // Commit retires up to commitWidth per cycle, so the measurement
    // window can overshoot the target by a few instructions.
    EXPECT_GE(r.insts, 50000u);
    EXPECT_LT(r.insts, 50016u);
    EXPECT_GT(r.ipc, 0.3);
}

TEST_P(CoreAllVariants, RunsRandomBranches)
{
    Program p = microRandomBranchLoop(8, 0.4);
    const RunResult r = runVariant(p, GetParam(), quick());
    // Commit retires up to commitWidth per cycle, so the measurement
    // window can overshoot the target by a few instructions.
    EXPECT_GE(r.insts, 50000u);
    EXPECT_LT(r.insts, 50016u);
    EXPECT_GT(r.ipc, 0.1);
    EXPECT_GT(r.branchMpki, 1.0) << "random branches must mispredict";
}

TEST_P(CoreAllVariants, RunsRecursion)
{
    Program p = microRecursion(12, 6);
    const RunResult r = runVariant(p, GetParam(), quick());
    // Commit retires up to commitWidth per cycle, so the measurement
    // window can overshoot the target by a few instructions.
    EXPECT_GE(r.insts, 50000u);
    EXPECT_LT(r.insts, 50016u);
    EXPECT_GT(r.ipc, 0.2);
}

TEST_P(CoreAllVariants, RunsIndirect)
{
    Program p = microIndirect(4, IndirectKind::Phased, 6);
    const RunResult r = runVariant(p, GetParam(), quick());
    // Commit retires up to commitWidth per cycle, so the measurement
    // window can overshoot the target by a few instructions.
    EXPECT_GE(r.insts, 50000u);
    EXPECT_LT(r.insts, 50016u);
    EXPECT_GT(r.ipc, 0.2);
}

TEST_P(CoreAllVariants, RunsMemoryStream)
{
    Program p = microMemoryStream(1 << 20, MemKind::Stride, 8);
    const RunResult r = runVariant(p, GetParam(), quick());
    // Commit retires up to commitWidth per cycle, so the measurement
    // window can overshoot the target by a few instructions.
    EXPECT_GE(r.insts, 50000u);
    EXPECT_LT(r.insts, 50016u);
    EXPECT_GT(r.ipc, 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, CoreAllVariants,
    ::testing::Values(FrontendVariant::NoDcf, FrontendVariant::Dcf,
                      FrontendVariant::LElf, FrontendVariant::RetElf,
                      FrontendVariant::IndElf, FrontendVariant::CondElf,
                      FrontendVariant::UElf),
    [](const ::testing::TestParamInfo<FrontendVariant> &info) {
        std::string n = variantName(info.param);
        for (char &c : n) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

TEST(CoreBehavior, PredictableLoopHasLowMpki)
{
    Program p = microSequentialLoop(30, 16);
    const RunResult r = runVariant(p, FrontendVariant::Dcf, quick());
    EXPECT_LT(r.branchMpki, 2.0);
}

TEST(CoreBehavior, WrongPathInstsAppearWithMispredicts)
{
    Program p = microRandomBranchLoop(8, 0.4);
    const RunResult r = runVariant(p, FrontendVariant::Dcf, quick());
    EXPECT_GT(r.wrongPathInsts, 100u);
}

TEST(CoreBehavior, BtbWarmAfterLoop)
{
    Program p = microTakenChain(8, 6);
    const RunResult r = runVariant(p, FrontendVariant::Dcf, quick());
    EXPECT_GT(r.btbHitL2, 0.9);
}

TEST(CoreBehavior, ElfSpendsMostCyclesDecoupled)
{
    Program p = microSequentialLoop(30, 16);
    SimConfig cfg = makeConfig(FrontendVariant::UElf);
    Core core(cfg, p);
    core.run(50000);
    const ElfStats &st = core.elf().stats();
    EXPECT_GT(st.decoupledCycles, st.coupledCycles)
        << "coupled mode is supposed to be transient";
}

TEST(CoreBehavior, ElfCoupledPeriodsTrackFlushes)
{
    Program p = microRandomBranchLoop(8, 0.4);
    SimConfig cfg = makeConfig(FrontendVariant::UElf);
    Core core(cfg, p);
    core.run(50000);
    EXPECT_GT(core.elf().stats().coupledPeriods, 10u);
    EXPECT_GT(core.elf().stats().switches, 10u);
}

TEST(CoreBehavior, SlowProducerChainHoldsDecodeAsRobFull)
{
    // A loop of dependent divides: commit retires one per divide
    // latency while fetch delivers a full group every cycle, so the
    // ROB fills and decode is held until commit frees a group's room.
    ProgramBuilder b;
    b.beginBlock();
    for (int i = 0; i < 8; ++i)
        b.addOp(InstClass::IntDiv, 5, 5);
    b.endJump(0);
    const Program p = b.finalize("div_chain");
    Core core(makeConfig(FrontendVariant::Dcf), p);
    core.run(2000);
    const BackendStats &be = core.backend().stats();
    EXPECT_GT(be.robFullCycles, core.cycles() / 2);
    EXPECT_LT(be.robFullCycles, core.cycles());
}

// --- run() skips idle cycles; tick() steps one ----------------------

namespace {

/** Every stat-tree leaf of @a core: its name and its value's bits. */
std::vector<std::pair<std::string, std::uint64_t>>
statLeaves(const Core &core)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    core.visitStats([&](const char *group, const auto &counters) {
        stats::forEachLeaf(group, counters,
                           [&](const std::string &name, auto v) {
                               if constexpr (std::is_floating_point_v<
                                                 decltype(v)>)
                                   out.emplace_back(
                                       name,
                                       std::bit_cast<std::uint64_t>(v));
                               else
                                   out.emplace_back(name, v);
                           });
    });
    return out;
}

/**
 * Drive one core with run() and a twin with single tick()s over the
 * same 2k + 8k windows. @return the first stat-tree leaf in which
 * they differ after a window, or "" when none does.
 */
std::string
firstRunTickDifference(const SimConfig &cfg, const Program &p)
{
    Core skipping(cfg, p);
    Core ticking(cfg, p);
    for (InstCount window : {InstCount(2000), InstCount(8000)}) {
        skipping.run(window);
        const InstCount target = ticking.committed() + window;
        while (ticking.committed() < target)
            ticking.tick();
        const auto a = statLeaves(skipping);
        const auto b = statLeaves(ticking);
        if (a.size() != b.size())
            return "stat tree shape";
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (a[i] != b[i])
                return a[i].first + ": run " +
                       std::to_string(a[i].second) + ", tick " +
                       std::to_string(b[i].second);
        }
    }
    return "";
}

constexpr FrontendVariant allVariants[] = {
    FrontendVariant::NoDcf, FrontendVariant::Dcf, FrontendVariant::LElf,
    FrontendVariant::UElf};

} // namespace

TEST(CoreRunVsTick, EveryCounterMatchesOnMemoryBoundWorkloads)
{
    // The detailed_memory benchmark's workloads plus a branchy server
    // proxy; the skip bulk-adds the per-cycle counters, which no
    // golden digest covers.
    for (const char *name :
         {"605.mcf", "srv2.subtest_3", "437.leslie3d", "lbm_like",
          "473.astar", "bwaves_like", "srv1.subtest_1"}) {
        const WorkloadSpec *spec = findWorkload(name);
        ASSERT_NE(spec, nullptr) << name;
        const Program p = buildWorkload(*spec);
        for (FrontendVariant v : allVariants)
            EXPECT_EQ(firstRunTickDifference(makeConfig(v), p), "")
                << name << " " << variantName(v);
    }
}

TEST(CoreRunVsTick, EveryCounterMatchesAtExtremeMemoryLatencies)
{
    // Memory latencies of 1 and 1000 put the completion calendar's
    // horizon at both extremes.
    const Program p = microMemoryStream(1 << 20, MemKind::Random, 6);
    for (Cycle lat : {Cycle(1), Cycle(1000)}) {
        for (FrontendVariant v : allVariants) {
            SimConfig cfg = makeConfig(v);
            cfg.mem.memLatency = lat;
            EXPECT_EQ(firstRunTickDifference(cfg, p), "")
                << "latency " << lat << " " << variantName(v);
        }
    }
}

TEST(CoreRunVsTick, EveryCounterMatchesWithDeepPipesAndTinyBtbs)
{
    // Longer fetch-to-decode and BP1-to-FE pipes, a FAQ shorter than
    // the BP1-to-FE depth and a BTB that misses often leave the front
    // end waiting on its own timers (decode readyAt, FAQ head
    // visibility, DCF bubbles) while the back end has room.
    const Program p = buildWorkload(*findWorkload("srv1.subtest_1"));
    for (FrontendVariant v : allVariants) {
        SimConfig cfg = makeConfig(v);
        cfg.fetch.fetchToDecode = 3;
        cfg.bp1ToFe = 5;
        cfg.faqEntries = 4;
        cfg.btb.l0.entries = 1;
        cfg.btb.l0.assoc = 0;
        cfg.btb.l1.entries = 4;
        cfg.btb.l1.assoc = 4;
        cfg.btb.l2.entries = 8;
        cfg.btb.l2.assoc = 8;
        EXPECT_EQ(firstRunTickDifference(cfg, p), "") << variantName(v);
    }
}

TEST(CoreRunVsTick, PollFiresOnTheTickedCycles)
{
    // The ExecContext poll (and so the fault injector) fires every
    // runPollCycles cycles; a skip stops at the poll. Values captured
    // with per-cycle ticking.
    const Program p = buildWorkload(*findWorkload("605.mcf"));
    struct Want
    {
        std::uint64_t armedTick;
        Cycle cycle;
        InstCount committed;
    };
    for (FrontendVariant v : {FrontendVariant::Dcf, FrontendVariant::UElf}) {
        for (const Want &w : {Want{20000, 20480, 2645},
                              Want{60500, 61440, 7926},
                              Want{150300, 150528, 19813}}) {
            FaultSpec f;
            f.kind = FaultKind::Throw;
            f.tick = w.armedTick;
            FaultInjector::instance().arm({f});
            Core core(makeConfig(v), p);
            ExecContext ctx;
            {
                ScopedExecContext scope(ctx);
                EXPECT_THROW(core.run(100000), InjectedError);
            }
            FaultInjector::instance().disarm();
            EXPECT_EQ(core.cycles(), w.cycle)
                << variantName(v) << " tick " << w.armedTick;
            EXPECT_EQ(core.committed(), w.committed)
                << variantName(v) << " tick " << w.armedTick;
        }
    }
}

TEST(CoreRunVsTick, WedgedCorePanicsOnTheTickedCycle)
{
    // A ROB smaller than the fetch width never admits a decode group:
    // the core has no wake source at all, so only the no-progress
    // bound stops the skip.
    const Program p = buildWorkload(*findWorkload("605.mcf"));
    SimConfig cfg = makeConfig(FrontendVariant::Dcf);
    cfg.backend.robEntries = 4;
    Core core(cfg, p);
    ScopedRecoverableErrors recoverable;
    try {
        core.run(1000);
        FAIL() << "a wedged core must panic";
    } catch (const InternalError &e) {
        EXPECT_NE(std::string(e.what()).find("no forward progress"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(core.cycles(), Core::noProgressCycles + 1);
    EXPECT_EQ(core.committed(), 0u);
}
