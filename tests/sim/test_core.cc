#include <gtest/gtest.h>

#include "sim/core.hh"
#include "sim/runner.hh"
#include "workload/builders.hh"
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
