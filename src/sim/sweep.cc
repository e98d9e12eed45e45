#include "sim/sweep.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <numeric>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stat_fields.hh"
#include "common/thread_pool.hh"
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
    if (const char *env = std::getenv("ELFSIM_JOBS")) {
        // The --jobs rules: the whole string is a decimal from 1 to
        // UINT_MAX. A sign, trailing junk or overflow must never turn
        // into a silently wrapped or truncated thread count.
        errno = 0;
        char *end = nullptr;
        const unsigned long long n = std::strtoull(env, &end, 10);
        if (std::isdigit(static_cast<unsigned char>(*env)) &&
            *end == '\0' && errno != ERANGE && n >= 1 && n <= UINT_MAX)
            return static_cast<unsigned>(n);
        ELFSIM_WARN("ELFSIM_JOBS='%s' is not a thread count from 1 to "
                    "%u; using hardware concurrency",
                    env, UINT_MAX);
    }
    return ThreadPool::hardwareThreads();
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
    const WarmStats warmStart = processWarmStats();
    std::vector<std::shared_ptr<const CompiledTrace>> traces(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (!grid[i].program)
            continue;
        // Sampled cells compile a capped prefix: the batch warming
        // kernel fast-forwards over the compiled event tables, so the
        // prefix that covers warmup+measure (bounded by
        // maxSampledTraceInsts to keep the artifact finite) pays for
        // itself many times over. Anything past the cap degrades to
        // the scalar path.
        const InstCount want =
            grid[i].opts.sampled()
                ? std::min(grid[i].opts.warmupInsts +
                               grid[i].opts.measureInsts,
                           maxSampledTraceInsts)
                : grid[i].opts.warmupInsts + grid[i].opts.measureInsts;
        traces[i] = grid[i].opts.trace
                        ? grid[i].opts.trace
                        : TraceCache::instance().acquire(
                              *grid[i].program, want);
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

    if (threads <= 1 || grid.size() <= 1) {
        for (std::size_t i = 0; i < grid.size(); ++i)
            runOne(i);
    } else {
        ThreadPool pool(threads);
        for (std::size_t i = 0; i < grid.size(); ++i)
            pool.submit([&runOne, i] { runOne(i); });
        pool.wait();
    }

    lastTraceStats = TraceCache::instance().stats().delta(traceStart);
    lastCkptStats = CheckpointStore::instance().stats().delta(ckptStart);
    lastWarmStats = processWarmStats().delta(warmStart);

    lastTiming = SweepTiming{};
    lastTiming.jobs = static_cast<unsigned>(grid.size());
    lastTiming.threads = threads;
    lastTiming.wallSeconds = secondsSince(sweepStart);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        lastTiming.serialSeconds += jobSeconds[i];
        lastTiming.simCycles += results[i].cycles;
        lastTiming.simInsts += results[i].insts;
    }
    lastResults = results;
    return results;
}

namespace {

std::ofstream
openOrDie(const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        throw IoError(
            errorf("cannot open '%s' for writing", path.c_str()));
    return os;
}

} // namespace

void
SweepRunner::writeJson(const std::string &path) const
{
    std::ofstream os = openOrDie(path);
    writeSweepJson(os, lastResults, &lastTiming, &lastTraceStats);
}

void
SweepRunner::writeCsv(const std::string &path) const
{
    std::ofstream os = openOrDie(path);
    writeResultsCsv(os, lastResults);

    bool anyTimeline = false;
    for (const RunResult &r : lastResults)
        anyTimeline = anyTimeline || !r.timeline.empty();
    if (!anyTimeline)
        return;

    std::string tpath = path;
    const std::string suffix = ".csv";
    if (tpath.size() >= suffix.size() &&
        tpath.compare(tpath.size() - suffix.size(), suffix.size(),
                      suffix) == 0) {
        tpath.resize(tpath.size() - suffix.size());
    }
    tpath += ".timeline.csv";
    std::ofstream ts = openOrDie(tpath);
    writeTimelineCsv(ts, lastResults);
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
