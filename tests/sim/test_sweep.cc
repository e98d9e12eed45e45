#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/export.hh"
#include "sim/sweep.hh"
#include "workload/builders.hh"

using namespace elfsim;

namespace {

RunOptions
smallWindow()
{
    RunOptions o;
    o.warmupInsts = 20000;
    o.measureInsts = 30000;
    return o;
}

/** The 6-job (workload × variant) grid used by the determinism tests. */
std::vector<SweepJob>
sixJobGrid(const Program &a, const Program &b, const Program &c)
{
    const RunOptions o = smallWindow();
    return {
        makeVariantJob(a, FrontendVariant::Dcf, o),
        makeVariantJob(a, FrontendVariant::UElf, o),
        makeVariantJob(b, FrontendVariant::Dcf, o),
        makeVariantJob(b, FrontendVariant::UElf, o),
        makeVariantJob(c, FrontendVariant::Dcf, o),
        makeVariantJob(c, FrontendVariant::UElf, o),
    };
}

/**
 * Every field of RunResult, compared exactly (doubles included:
 * parallel runs must be bit-identical to serial ones). Fields are
 * enumerated by RunResult::forEachField — the same single source of
 * truth the exporters use — plus the timeline, so a new field can
 * never silently escape the determinism check. The JSON comparison
 * is exact because doubles serialize with round-trip precision.
 */
void
expectIdentical(const RunResult &x, const RunResult &y)
{
    const auto asJson = [](const RunResult &r) {
        std::ostringstream os;
        JsonWriter w(os);
        writeRunResult(w, r);
        return os.str();
    };
    EXPECT_EQ(asJson(x), asJson(y));
}

} // namespace

// Two cells of a six-cell grid cannot run: cell 2's core wedges (a
// ROB smaller than the fetch width never admits a decode group, so
// Core::run's no-progress panic fires) and cell 4 asks for a sample
// length without a sample period (validateRunOptions throws a
// ConfigError). Each becomes a failed row carrying its own message;
// every other row is byte-identical to a clean run. The 4-thread run
// is the failure path under TSan.
TEST(Sweep, FailedCellsLeaveTheRestOfTheGridIntact)
{
    Program a = microRandomBranchLoop(8, 0.4);
    Program b = microSequentialLoop(30, 16);
    Program c = microBtbMissChain(512, 6);
    SweepRunner clean(1);
    const std::vector<RunResult> expect = clean.run(sixJobGrid(a, b, c));
    ASSERT_EQ(clean.failedCells(), 0u);

    std::vector<SweepJob> grid = sixJobGrid(a, b, c);
    grid[2].cfg.backend.robEntries = 4;
    grid[4].opts.sampleLengthInsts = 1000;

    for (unsigned threads : {1u, 4u}) {
        SweepRunner runner(threads);
        const std::vector<RunResult> got = runner.run(grid);
        ASSERT_EQ(got.size(), grid.size());
        EXPECT_EQ(runner.failedCells(), 2u) << threads << " threads";
        EXPECT_NE(got[2].error.find("no forward progress"),
                  std::string::npos)
            << got[2].error;
        EXPECT_NE(got[4].error.find("need a sample period"),
                  std::string::npos)
            << got[4].error;
        for (std::size_t i = 0; i < got.size(); ++i) {
            if (i != 2 && i != 4) {
                expectIdentical(got[i], expect[i]);
                continue;
            }
            EXPECT_EQ(got[i].status, JobStatus::Failed) << i;
            EXPECT_EQ(got[i].insts, 0u) << i;
            EXPECT_EQ(got[i].attempts, 1u) << i;
            EXPECT_EQ(got[i].workload, expect[i].workload) << i;
            EXPECT_EQ(got[i].variant, expect[i].variant) << i;
        }
    }
}

TEST(Sweep, ParallelMatchesSerialBitIdentical)
{
    Program a = microRandomBranchLoop(8, 0.4);
    Program b = microSequentialLoop(30, 16);
    Program c = microBtbMissChain(512, 6);
    const std::vector<SweepJob> grid = sixJobGrid(a, b, c);

    SweepRunner serial(1);
    SweepRunner parallel(4);
    ASSERT_EQ(serial.threadCount(), 1u);
    ASSERT_EQ(parallel.threadCount(), 4u);

    const std::vector<RunResult> rs = serial.run(grid);
    const std::vector<RunResult> rp = parallel.run(grid);
    ASSERT_EQ(rs.size(), grid.size());
    ASSERT_EQ(rp.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        expectIdentical(rs[i], rp[i]);
}

TEST(Sweep, PerJobSeedsAreThreadCountInvariant)
{
    Program a = microRandomBranchLoop(8, 0.4);
    Program b = microSequentialLoop(30, 16);
    Program c = microBtbMissChain(512, 6);
    const std::vector<SweepJob> grid = sixJobGrid(a, b, c);

    SweepRunner serial(1);
    serial.setBaseSeed(0xfeed);
    SweepRunner parallel(4);
    parallel.setBaseSeed(0xfeed);

    const std::vector<RunResult> rs = serial.run(grid);
    const std::vector<RunResult> rp = parallel.run(grid);
    for (std::size_t i = 0; i < grid.size(); ++i)
        expectIdentical(rs[i], rp[i]);
}

// The edges of the worker loop: more threads than cells, a runner
// reused for a smaller grid, and an empty grid, which must start no
// helper (a helper count of threads - 1 must not be taken from a
// zero cell count).
TEST(Sweep, WorkerLoopCoversEveryCellAtTheGridEdges)
{
    Program a = microRandomBranchLoop(8, 0.4);
    Program b = microSequentialLoop(30, 16);
    Program c = microBtbMissChain(512, 6);
    const std::vector<SweepJob> grid = sixJobGrid(a, b, c);

    SweepRunner serial(1);
    const std::vector<RunResult> expect = serial.run(grid);

    SweepRunner wide(8);
    const std::vector<RunResult> got = wide.run(grid);
    ASSERT_EQ(got.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        expectIdentical(got[i], expect[i]);
    EXPECT_EQ(wide.timing().jobs, 6u);
    EXPECT_EQ(wide.timing().threads, 8u);

    const std::vector<SweepJob> two = {grid[5], grid[0]};
    const std::vector<RunResult> again = wide.run(two);
    ASSERT_EQ(again.size(), 2u);
    expectIdentical(again[0], expect[5]);
    expectIdentical(again[1], expect[0]);
    EXPECT_EQ(wide.timing().jobs, 2u);

    SweepRunner idle(4);
    EXPECT_TRUE(idle.run({}).empty());
    EXPECT_TRUE(idle.results().empty());
    EXPECT_EQ(idle.timing().jobs, 0u);
    EXPECT_EQ(idle.failedCells(), 0u);
}

TEST(Sweep, ResultsMergeInSubmissionOrder)
{
    Program a = microRandomBranchLoop(8, 0.4);
    Program b = microSequentialLoop(30, 16);
    Program c = microBtbMissChain(512, 6);
    const std::vector<SweepJob> grid = sixJobGrid(a, b, c);

    SweepRunner runner(4);
    const std::vector<RunResult> res = runner.run(grid);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(res[i].workload, grid[i].program->name());
        EXPECT_EQ(res[i].variant, variantName(grid[i].cfg.variant));
    }
}

TEST(Sweep, TimingSummaryPopulated)
{
    Program a = microRandomBranchLoop(8, 0.4);
    Program b = microSequentialLoop(30, 16);
    Program c = microBtbMissChain(512, 6);

    SweepRunner runner(2);
    runner.run(sixJobGrid(a, b, c));
    const SweepTiming &t = runner.timing();
    EXPECT_EQ(t.jobs, 6u);
    EXPECT_EQ(t.threads, 2u);
    EXPECT_GT(t.wallSeconds, 0.0);
    EXPECT_GE(t.serialSeconds, 0.0);
    EXPECT_GT(t.simCycles, 0u);
    EXPECT_GT(t.simInsts, 0u);
    EXPECT_GT(t.cyclesPerSecond(), 0.0);

    std::ostringstream os;
    runner.printTimingSummary(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("sweep.jobs"), std::string::npos);
    EXPECT_NE(s.find("sweep.threads"), std::string::npos);
    EXPECT_NE(s.find("sweep.wall_seconds"), std::string::npos);
    EXPECT_NE(s.find("sweep.sim_cycles_per_second"),
              std::string::npos);
    EXPECT_NE(s.find("sweep.job_seconds"), std::string::npos);
}

TEST(Sweep, ResolveJobsPrecedence)
{
    // An explicit request (--jobs N) wins.
    EXPECT_EQ(SweepRunner::resolveJobs(3), 3u);
    EXPECT_EQ(SweepRunner(3).threadCount(), 3u);

    // Otherwise one thread per hardware thread, at least one. The
    // environment is not read: ELFSIM_JOBS is not a setting.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    ::setenv("ELFSIM_JOBS", std::to_string(hw + 1).c_str(), 1);
    EXPECT_EQ(SweepRunner::resolveJobs(0), hw);
    EXPECT_EQ(SweepRunner(0).threadCount(), hw);
    ::unsetenv("ELFSIM_JOBS");
}

TEST(Sweep, SeededSweepStillDeterministicAcrossRepeats)
{
    Program a = microRandomBranchLoop(8, 0.4);
    const RunOptions o = smallWindow();
    const std::vector<SweepJob> grid = {
        makeVariantJob(a, FrontendVariant::UElf, o),
        makeVariantJob(a, FrontendVariant::UElf, o),
    };

    SweepRunner r1(2), r2(2);
    r1.setBaseSeed(0x5eed);
    r2.setBaseSeed(0x5eed);
    const std::vector<RunResult> x = r1.run(grid);
    const std::vector<RunResult> y = r2.run(grid);
    for (std::size_t i = 0; i < grid.size(); ++i)
        expectIdentical(x[i], y[i]);
}
