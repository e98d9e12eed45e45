#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <numeric>
#include <thread>

#include "common/error.hh"
#include "common/random.hh"
#include "common/stat_fields.hh"
#include "sim/export.hh"

namespace elfsim {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Zeroed result recording a cell that failed. */
RunResult
degradedResult(const SweepJob &job, const std::string &what)
{
    RunResult r;
    r.workload = job.program->name();
    r.variant = variantName(job.cfg.variant);
    r.status = JobStatus::Failed;
    r.error = what;
    return r;
}

} // namespace

SweepJob
makeVariantJob(const Program &prog, FrontendVariant variant,
               const RunOptions &opts)
{
    SweepJob j;
    j.program = &prog;
    j.cfg = makeConfig(variant);
    j.opts = opts;
    return j;
}

unsigned
SweepRunner::resolveJobs(unsigned requested)
{
    if (requested)
        return requested;
    return std::max(1u, std::thread::hardware_concurrency());
}

SweepRunner::SweepRunner(unsigned threads)
    : threads(resolveJobs(threads))
{
}

std::size_t
SweepRunner::failedCells() const
{
    std::size_t n = 0;
    for (const RunResult &r : lastResults)
        if (!r.ok())
            ++n;
    return n;
}

std::vector<RunResult>
SweepRunner::run(const std::vector<SweepJob> &grid)
{
    std::vector<RunResult> results(grid.size());
    jobSeconds.assign(grid.size(), 0.0);

    // Precompile: acquire each cell's compiled trace before
    // any per-job timer starts. The TraceCache memoizes by content,
    // so a grid of V variants over W workloads compiles (or loads)
    // exactly W traces and every cell shares them read-only; the
    // compilation cost never lands in jobSeconds. Null entries (cache
    // disabled) leave those cells on the lazy reference path.
    const TraceStats traceStart = TraceCache::instance().stats();
    const CkptStats ckptStart = CheckpointStore::instance().stats();
    std::vector<std::shared_ptr<const CompiledTrace>> traces(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (!grid[i].program)
            continue;
        traces[i] = grid[i].opts.trace
                        ? grid[i].opts.trace
                        : TraceCache::instance().acquire(
                              *grid[i].program,
                              grid[i].opts.traceInsts());
    }

    const auto sweepStart = std::chrono::steady_clock::now();

    auto runOne = [&](std::size_t i) {
        SweepJob job = grid[i];
        job.opts.trace = traces[i];
        if (baseSeed)
            job.cfg.rngSeed = mix64(baseSeed, i + 1);

        const auto jobStart = std::chrono::steady_clock::now();
        try {
            ScopedRecoverableErrors recover;
            results[i] = runSimulation(*job.program, job.cfg, job.opts);
        } catch (const std::exception &e) {
            results[i] = degradedResult(grid[i], e.what());
        }
        jobSeconds[i] = secondsSince(jobStart);
    };

    // Workers take cells in index order from one counter; the calling
    // thread is one of them. One thread or one cell starts no helper:
    // the serial reference path. The helpers join when the block
    // ends, also when starting one throws.
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        for (std::size_t i = next++; i < grid.size(); i = next++)
            runOne(i);
    };
    {
        const std::size_t workers =
            std::min<std::size_t>(threads, grid.size());
        std::vector<std::jthread> helpers;
        for (std::size_t t = 1; t < workers; ++t)
            helpers.emplace_back(worker);
        worker();
    }

    lastTraceStats = TraceCache::instance().stats().delta(traceStart);
    lastCkptStats = CheckpointStore::instance().stats().delta(ckptStart);

    lastTiming = SweepTiming{};
    lastTiming.jobs = static_cast<unsigned>(grid.size());
    lastTiming.threads = threads;
    lastTiming.wallSeconds = secondsSince(sweepStart);
    lastWarmStats = WarmStats{};
    for (std::size_t i = 0; i < grid.size(); ++i) {
        lastTiming.serialSeconds += jobSeconds[i];
        lastTiming.simCycles += results[i].cycles;
        lastTiming.simInsts += results[i].insts;
        const SamplingInfo &sm = results[i].sampling;
        lastWarmStats.add({sm.warmKernelInsts, sm.warmScalarInsts,
                           sm.warmBranchEvents, sm.warmLinesTouched});
    }
    lastResults = results;
    return results;
}

void
SweepRunner::writeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        throw IoError(
            errorf("cannot open '%s' for writing", path.c_str()));
    writeSweepJson(os, lastResults, &lastTiming, &lastTraceStats);
}

void
SweepRunner::printTimingSummary(std::ostream &os) const
{
    const SweepTiming &t = lastTiming;
    stats::printLine(os, "sweep.jobs", t.jobs);
    stats::printLine(os, "sweep.threads", t.threads);
    stats::printLine(os, "sweep.failed_cells", failedCells());
    stats::printLine(os, "sweep.wall_seconds", t.wallSeconds);
    stats::printLine(os, "sweep.serial_seconds", t.serialSeconds);
    stats::printLine(os, "sweep.speedup", t.speedup());
    stats::printLine(os, "sweep.sim_cycles", t.simCycles);
    stats::printLine(os, "sweep.sim_insts", t.simInsts);
    stats::printLine(os, "sweep.sim_cycles_per_second",
                     t.cyclesPerSecond());

    // Per-job wall-clock moments.
    const std::vector<double> &js = jobSeconds;
    const auto [lo, hi] = std::minmax_element(js.begin(), js.end());
    const bool any = !js.empty();
    stats::printLine(os, "sweep.job_seconds::mean",
                     any ? std::accumulate(js.begin(), js.end(), 0.0) /
                               double(js.size())
                         : 0.0);
    stats::printLine(os, "sweep.job_seconds::samples", js.size());
    stats::printLine(os, "sweep.job_seconds::min", any ? *lo : 0.0);
    stats::printLine(os, "sweep.job_seconds::max", any ? *hi : 0.0);

    stats::print(os, "trace", lastTraceStats);
    stats::print(os, "ckpt", lastCkptStats);
    stats::print(os, "warm", lastWarmStats);
}

} // namespace elfsim
