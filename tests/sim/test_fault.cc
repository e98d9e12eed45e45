/**
 * @file
 * Fault-tolerant sweep execution: deterministic fault injection,
 * recoverable panics, watchdog timeouts, bounded retries, and
 * crash-safe manifest resume. The multi-thread hang test doubles as
 * the TSan workout for the watchdog monitor (see CMakePresets.json).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/fault.hh"
#include "sim/export.hh"
#include "sim/sweep.hh"
#include "workload/builders.hh"
#include "workload/trace_cache.hh"

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

/** Arm the process-wide injector for one test, disarm on exit. */
class ArmedFaults
{
  public:
    explicit ArmedFaults(const std::string &spec)
    {
        FaultInjector::instance().arm(FaultInjector::parse(spec));
    }
    ~ArmedFaults() { FaultInjector::instance().disarm(); }
};

std::string
asJson(const RunResult &r)
{
    std::ostringstream os;
    JsonWriter w(os);
    writeRunResult(w, r);
    return os.str();
}

/** Exact comparison, doubles included (see test_sweep.cc). */
void
expectIdentical(const RunResult &x, const RunResult &y)
{
    EXPECT_EQ(asJson(x), asJson(y));
}

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

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

} // namespace

TEST(FaultSpec, ParseAcceptsValidSpecs)
{
    const auto one = FaultInjector::parse("throw:3:5000");
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].kind, FaultKind::Throw);
    EXPECT_EQ(one[0].job, 3u);
    EXPECT_FALSE(one[0].anyJob);
    EXPECT_EQ(one[0].tick, 5000u);

    const auto many =
        FaultInjector::parse("hang:*:0,transient:1:200,slow:2:9");
    ASSERT_EQ(many.size(), 3u);
    EXPECT_EQ(many[0].kind, FaultKind::Hang);
    EXPECT_TRUE(many[0].anyJob);
    EXPECT_EQ(many[1].kind, FaultKind::Transient);
    EXPECT_EQ(many[2].kind, FaultKind::Slow);
    EXPECT_EQ(many[2].tick, 9u);

    const auto tc = FaultInjector::parse("tracecache:*:0");
    ASSERT_EQ(tc.size(), 1u);
    EXPECT_EQ(tc[0].kind, FaultKind::TraceCache);
    EXPECT_TRUE(tc[0].anyJob);
}

TEST(FaultSpec, ParseRejectsMalformedSpecs)
{
    EXPECT_THROW(FaultInjector::parse("bogus:1:2"), ConfigError);
    EXPECT_THROW(FaultInjector::parse("throw:1"), ConfigError);
    EXPECT_THROW(FaultInjector::parse("throw:x:1"), ConfigError);
    EXPECT_THROW(FaultInjector::parse("throw:1:-5"), ConfigError);
    EXPECT_THROW(FaultInjector::parse("throw:1:2junk"), ConfigError);
    EXPECT_THROW(FaultInjector::parse("throw:1:2,,"), ConfigError);
}

TEST(Fault, JobControlFirstReasonWins)
{
    JobControl c;
    EXPECT_FALSE(c.cancelled());
    c.requestCancel(CancelReason::Stalled);
    c.requestCancel(CancelReason::Deadline);
    EXPECT_TRUE(c.cancelled());
    EXPECT_EQ(c.cancelReason(), CancelReason::Stalled);
    c.reset();
    EXPECT_FALSE(c.cancelled());
    EXPECT_EQ(c.cancelReason(), CancelReason::None);
}

TEST(Fault, InjectedThrowDegradesOneCellOnly)
{
    Program a = microRandomBranchLoop(8, 0.4);
    Program b = microSequentialLoop(30, 16);
    Program c = microBtbMissChain(512, 6);
    const std::vector<SweepJob> grid = sixJobGrid(a, b, c);

    SweepRunner clean(1);
    const std::vector<RunResult> expect = clean.run(grid);

    ArmedFaults armed("throw:1:5000");
    SweepRunner runner(1);
    const std::vector<RunResult> got = runner.run(grid);

    ASSERT_EQ(got.size(), grid.size());
    EXPECT_EQ(got[1].status, JobStatus::Failed);
    EXPECT_NE(got[1].error.find("injected throw"), std::string::npos);
    EXPECT_EQ(got[1].attempts, 1u);
    EXPECT_EQ(got[1].insts, 0u);
    EXPECT_EQ(runner.failedCells(), 1u);
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (i == 1)
            continue;
        expectIdentical(got[i], expect[i]);
    }
}

TEST(Fault, RecoverablePanicBecomesFailedCell)
{
    Program a = microRandomBranchLoop(8, 0.4);
    const std::vector<SweepJob> grid = {
        makeVariantJob(a, FrontendVariant::Dcf, smallWindow())};

    ArmedFaults armed("panic:0:2000");
    SweepRunner runner(1);
    const std::vector<RunResult> got = runner.run(grid);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].status, JobStatus::Failed);
    EXPECT_NE(got[0].error.find("injected panic"), std::string::npos);
}

TEST(Fault, TransientFaultRetriesToOk)
{
    Program a = microRandomBranchLoop(8, 0.4);
    Program b = microSequentialLoop(30, 16);
    Program c = microBtbMissChain(512, 6);
    const std::vector<SweepJob> grid = sixJobGrid(a, b, c);

    SweepRunner clean(1);
    const std::vector<RunResult> expect = clean.run(grid);

    ArmedFaults armed("transient:2:2000");
    SweepRunner runner(1);
    SweepPolicy pol;
    pol.maxRetries = 1;
    runner.setPolicy(pol);
    const std::vector<RunResult> got = runner.run(grid);

    EXPECT_EQ(runner.failedCells(), 0u);
    EXPECT_EQ(got[2].status, JobStatus::Ok);
    EXPECT_EQ(got[2].attempts, 2u);
    // The retried cell's metrics must match the clean run exactly —
    // a fresh attempt starts from a fresh core.
    RunResult normalized = got[2];
    normalized.attempts = 1;
    expectIdentical(normalized, expect[2]);
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (i == 2)
            continue;
        expectIdentical(got[i], expect[i]);
    }
}

TEST(Fault, TransientFaultFailsWithoutRetryBudget)
{
    Program a = microRandomBranchLoop(8, 0.4);
    const std::vector<SweepJob> grid = {
        makeVariantJob(a, FrontendVariant::Dcf, smallWindow())};

    ArmedFaults armed("transient:0:2000");
    SweepRunner runner(1);
    const std::vector<RunResult> got = runner.run(grid);
    EXPECT_EQ(got[0].status, JobStatus::Failed);
    EXPECT_EQ(got[0].attempts, 1u);
}

// The TSan workout: four workers, the watchdog monitor, and the
// injector all run concurrently; an injected hang must degrade to a
// timeout cell while every surviving cell stays byte-identical to a
// clean serial run.
TEST(Fault, InjectedHangTimesOutAcrossFourThreads)
{
    Program a = microRandomBranchLoop(8, 0.4);
    Program b = microSequentialLoop(30, 16);
    Program c = microBtbMissChain(512, 6);
    const std::vector<SweepJob> grid = sixJobGrid(a, b, c);

    SweepRunner clean(1);
    const std::vector<RunResult> expect = clean.run(grid);

    ArmedFaults armed("hang:3:2000");
    SweepRunner runner(4);
    ASSERT_EQ(runner.threadCount(), 4u);
    SweepPolicy pol;
    // Generous: under TSan with four workers oversubscribed on one
    // CPU, a healthy job can sit unscheduled for hundreds of ms. The
    // hung job's heartbeat stops forever, so any threshold finds it.
    pol.stallSeconds = 2.0;
    runner.setPolicy(pol);
    const std::vector<RunResult> got = runner.run(grid);

    EXPECT_EQ(got[3].status, JobStatus::Timeout);
    EXPECT_NE(got[3].error.find("heartbeat stalled"),
              std::string::npos);
    EXPECT_EQ(runner.failedCells(), 1u);
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (i == 3)
            continue;
        expectIdentical(got[i], expect[i]);
    }
}

TEST(Fault, DeadlineCancelsHungJob)
{
    Program a = microRandomBranchLoop(8, 0.4);
    const std::vector<SweepJob> grid = {
        makeVariantJob(a, FrontendVariant::Dcf, smallWindow())};

    ArmedFaults armed("hang:0:1000");
    SweepRunner runner(1);
    SweepPolicy pol;
    pol.deadlineSeconds = 0.2;
    runner.setPolicy(pol);
    const std::vector<RunResult> got = runner.run(grid);
    EXPECT_EQ(got[0].status, JobStatus::Timeout);
    EXPECT_NE(got[0].error.find("wall-clock deadline"),
              std::string::npos);
}

TEST(Manifest, RoundTripSkipsGarbageAndKeepsLastIndex)
{
    Program a = microRandomBranchLoop(8, 0.4);
    RunOptions o = smallWindow();
    o.intervalInsts = 10000; // timelines must survive the round trip
    const RunResult real =
        runSimulation(a, makeConfig(FrontendVariant::UElf), o);

    RunResult failed;
    failed.workload = "w";
    failed.variant = "DCF";
    failed.status = JobStatus::Timeout;
    failed.error = "watchdog: committed-instruction heartbeat stalled";
    failed.attempts = 2;

    std::ostringstream os;
    writeManifestLine(os, ManifestEntry{0, "k0", failed});
    os << "this is not json\n";
    writeManifestLine(os, ManifestEntry{1, "k1", real});
    // Re-journaled index 0 (a resumed sweep appends): last wins.
    writeManifestLine(os, ManifestEntry{0, "k0b", real});
    // Truncated final line: a crash mid-append.
    os << R"({"manifest":"elfsim-manifest-v1","index":2,)";

    std::istringstream is(os.str());
    const std::vector<ManifestEntry> entries = readManifest(is);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].index, 0u);
    EXPECT_EQ(entries[0].key, "k0b");
    expectIdentical(entries[0].result, real);
    EXPECT_EQ(entries[1].index, 1u);
    expectIdentical(entries[1].result, real);
}

TEST(Manifest, ResumeReRunsOnlyUnfinishedCells)
{
    Program a = microRandomBranchLoop(8, 0.4);
    Program b = microSequentialLoop(30, 16);
    Program c = microBtbMissChain(512, 6);
    const std::vector<SweepJob> grid = sixJobGrid(a, b, c);
    const std::string manifest = tempPath("elfsim_resume.jsonl");
    std::remove(manifest.c_str());

    SweepRunner clean(1);
    const std::vector<RunResult> expect = clean.run(grid);

    {
        ArmedFaults armed("throw:2:3000");
        SweepRunner first(1);
        SweepPolicy pol;
        pol.manifestPath = manifest;
        first.setPolicy(pol);
        const std::vector<RunResult> got = first.run(grid);
        EXPECT_EQ(got[2].status, JobStatus::Failed);
        EXPECT_EQ(first.failedCells(), 1u);
    }

    SweepRunner second(1);
    SweepPolicy pol;
    pol.manifestPath = manifest;
    pol.resume = true;
    second.setPolicy(pol);
    const std::vector<RunResult> got = second.run(grid);

    EXPECT_EQ(second.failedCells(), 0u);
    for (std::size_t i = 0; i < got.size(); ++i)
        expectIdentical(got[i], expect[i]);
    // Only the failed cell actually re-ran; reused cells carry no
    // fresh wall-clock.
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (i == 2)
            EXPECT_GT(second.perJobSeconds()[i], 0.0);
        else
            EXPECT_EQ(second.perJobSeconds()[i], 0.0);
    }
    std::remove(manifest.c_str());
}

TEST(Manifest, StaleKeyIsNotReused)
{
    Program a = microRandomBranchLoop(8, 0.4);
    const std::vector<SweepJob> grid = {
        makeVariantJob(a, FrontendVariant::Dcf, smallWindow())};
    const std::string manifest = tempPath("elfsim_stale.jsonl");

    // A manifest whose key does not match this grid (different
    // window) must be ignored, not adopted.
    RunResult bogus;
    bogus.workload = "other";
    bogus.variant = "DCF";
    {
        std::ofstream os(manifest);
        writeManifestLine(os, ManifestEntry{0, "other|key", bogus});
    }
    SweepRunner runner(1);
    SweepPolicy pol;
    pol.manifestPath = manifest;
    pol.resume = true;
    runner.setPolicy(pol);
    const std::vector<RunResult> got = runner.run(grid);
    EXPECT_EQ(got[0].status, JobStatus::Ok);
    EXPECT_GT(got[0].insts, 0u);
    EXPECT_NE(got[0].workload, "other");
    std::remove(manifest.c_str());
}

TEST(Fault, InterruptCancelsQueuedJobs)
{
    Program a = microRandomBranchLoop(8, 0.4);
    Program b = microSequentialLoop(30, 16);
    Program c = microBtbMissChain(512, 6);
    const std::vector<SweepJob> grid = sixJobGrid(a, b, c);

    SweepRunner::installSignalHandlers();
    SweepRunner::clearInterrupt();
    std::raise(SIGINT);
    EXPECT_TRUE(SweepRunner::interruptRequested());

    SweepRunner runner(1);
    const std::vector<RunResult> got = runner.run(grid);
    SweepRunner::clearInterrupt();

    ASSERT_EQ(got.size(), grid.size());
    for (const RunResult &r : got) {
        EXPECT_EQ(r.status, JobStatus::Cancelled);
        EXPECT_EQ(r.attempts, 0u);
    }
    EXPECT_EQ(runner.failedCells(), grid.size());
}

// A poisoned on-disk trace cache must degrade to a transparent
// recompile — slower, never a failed cell, and cycle-identical output.
TEST(Fault, PoisonedTraceCacheRecompilesInsteadOfFailing)
{
    Program a = microRandomBranchLoop(8, 0.4);
    Program b = microSequentialLoop(30, 16);
    const std::vector<SweepJob> grid = {
        makeVariantJob(a, FrontendVariant::Dcf, smallWindow()),
        makeVariantJob(b, FrontendVariant::UElf, smallWindow()),
    };

    TraceCache &cache = TraceCache::instance();
    const std::string prevDir = cache.directory();
    const std::string dir = testing::TempDir() + "elfsim_poisoned_tc";
    {
        // Start cold even if a previous run left artifacts behind.
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
    cache.setDirectory(dir);
    cache.clearMemory();

    // Clean reference sweep; also populates the on-disk artifacts.
    SweepRunner clean(1);
    const std::vector<RunResult> expect = clean.run(grid);
    EXPECT_EQ(clean.traceStats().compiles, 2u);

    // Every subsequent acquisition must now see the injected
    // corruption on its disk read (the memo is dropped so the disk
    // path actually runs).
    cache.clearMemory();
    ArmedFaults armed("tracecache:*:0");
    SweepRunner runner(1);
    const std::vector<RunResult> got = runner.run(grid);

    EXPECT_EQ(runner.failedCells(), 0u);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectIdentical(got[i], expect[i]);
    // The corrupted reads were demoted to recompiles, not hits.
    EXPECT_EQ(runner.traceStats().compiles, 2u);
    EXPECT_EQ(runner.traceStats().bytesMapped, 0u);

    cache.setDirectory(prevDir);
    cache.clearMemory();
}

TEST(Export, FailedCellsSurviveTheV2Document)
{
    Program a = microRandomBranchLoop(8, 0.4);
    const std::vector<SweepJob> grid = {
        makeVariantJob(a, FrontendVariant::Dcf, smallWindow()),
        makeVariantJob(a, FrontendVariant::UElf, smallWindow()),
    };
    ArmedFaults armed("throw:0:2000");
    SweepRunner runner(1);
    runner.run(grid);

    std::ostringstream os;
    writeSweepJson(os, runner.results(), nullptr);
    const json::Value doc = json::parse(os.str());
    EXPECT_EQ(doc.at("schema").asString(), "elfsim-results-v2");
    EXPECT_EQ(doc.at("results")[0].at("status").asString(), "failed");
    EXPECT_NE(doc.at("results")[0].at("error").asString().find(
                  "injected throw"),
              std::string::npos);
    EXPECT_EQ(doc.at("results")[1].at("status").asString(), "ok");
}
