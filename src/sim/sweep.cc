#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/error.hh"
#include "common/fault.hh"
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

/** Monotonic milliseconds (watchdog bookkeeping). */
std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// Process-wide interrupt flag, set by the signal handler and polled
// by the watchdog monitor — async-signal-safe by construction.
std::atomic<int> interruptFlag{0};
std::atomic<bool> handlersInstalled{false};

void
interruptHandler(int sig)
{
    interruptFlag.store(sig, std::memory_order_relaxed);
}

/**
 * Per-job watchdog state. `control` and `phase`/`startMs` are shared
 * between the worker running the job and the monitor thread; seenBeat
 * / seenBeatMs are the monitor's private stall-detection memory.
 * Phases: 0 = pending, 1 = running, 2 = done.
 */
struct JobWatch
{
    JobControl control;
    std::atomic<int> phase{0};
    std::atomic<std::int64_t> startMs{0};

    std::uint64_t seenBeat = 0;
    std::int64_t seenBeatMs = 0;
};

/** Zeroed result recording a cell that did not complete ok. */
RunResult
degradedResult(const SweepJob &job, JobStatus status,
               const std::string &what, std::uint64_t attempts)
{
    RunResult r;
    r.workload = job.program->name();
    r.variant = variantName(job.cfg.variant);
    r.status = status;
    r.error = what;
    r.attempts = attempts;
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

void
SweepRunner::installSignalHandlers()
{
    std::signal(SIGINT, interruptHandler);
    std::signal(SIGTERM, interruptHandler);
    handlersInstalled.store(true);
}

bool
SweepRunner::interruptRequested()
{
    return interruptFlag.load(std::memory_order_relaxed) != 0;
}

void
SweepRunner::clearInterrupt()
{
    interruptFlag.store(0, std::memory_order_relaxed);
}

std::string
SweepRunner::jobKey(const SweepJob &job, std::size_t i) const
{
    const std::uint64_t seed =
        baseSeed ? mix64(baseSeed, i + 1) : job.cfg.rngSeed;
    std::string k = job.program->name();
    k += '|';
    k += variantName(job.cfg.variant);
    k += "|w" + std::to_string(job.opts.warmupInsts);
    k += "|m" + std::to_string(job.opts.measureInsts);
    k += "|i" + std::to_string(job.opts.intervalInsts);
    // Sampling schedule is part of a cell's identity: a sampled and a
    // full run of the same grid slot must never share manifest cells.
    if (job.opts.sampled()) {
        k += "|p" + std::to_string(job.opts.samplePeriodInsts);
        k += "|l" + std::to_string(job.opts.sampleLengthInsts);
        k += "|u" + std::to_string(job.opts.sampleWarmupInsts);
    }
    k += "|s" + std::to_string(seed);
    return k;
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

    // Resume: adopt ok cells journaled by a previous (killed) run.
    // Identity check is index + jobKey, so a manifest from a
    // different grid or seed silently re-runs everything it cannot
    // vouch for.
    std::vector<char> done(grid.size(), 0);
    if (pol.resume && !pol.manifestPath.empty()) {
        std::ifstream in(pol.manifestPath);
        if (!in) {
            ELFSIM_WARN("resume: cannot read manifest '%s'; "
                        "running the full grid",
                        pol.manifestPath.c_str());
        } else {
            std::size_t reused = 0;
            for (ManifestEntry &e : readManifest(in)) {
                if (e.index >= grid.size())
                    continue;
                if (e.key != jobKey(grid[e.index], e.index)) {
                    ELFSIM_WARN(
                        "resume: manifest cell %zu key mismatch "
                        "(stale manifest?); re-running it",
                        e.index);
                    continue;
                }
                if (e.result.status != JobStatus::Ok)
                    continue;
                results[e.index] = std::move(e.result);
                done[e.index] = 1;
                ++reused;
            }
            ELFSIM_INFORM("resume: reusing %zu of %zu cells from '%s'",
                          reused, grid.size(),
                          pol.manifestPath.c_str());
        }
    }

    std::ofstream manifest;
    std::mutex manifestMtx;
    if (!pol.manifestPath.empty()) {
        manifest.open(pol.manifestPath, pol.resume ? std::ios::app
                                                   : std::ios::trunc);
        if (!manifest)
            throw IoError(errorf("cannot open manifest '%s' for writing",
                                 pol.manifestPath.c_str()));
    }

    // Journal a finished cell; one flushed line per cell bounds the
    // loss of a crash to the cells in flight at that instant.
    auto journal = [&](std::size_t i) {
        if (!manifest.is_open())
            return;
        std::lock_guard<std::mutex> lk(manifestMtx);
        writeManifestLine(manifest,
                          ManifestEntry{i, jobKey(grid[i], i), results[i]});
        manifest.flush();
    };

    // deque: JobWatch holds atomics and must never move.
    std::deque<JobWatch> watches(grid.size());

    // Precompile: acquire each pending cell's compiled trace before
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
        if (done[i] || !grid[i].program)
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
        JobWatch &watch = watches[i];

        if (interruptRequested()) {
            results[i] = degradedResult(
                grid[i], JobStatus::Cancelled,
                "sweep interrupted before job started", 0);
            watch.phase.store(2, std::memory_order_release);
            journal(i);
            return;
        }

        for (std::uint64_t attempt = 1;; ++attempt) {
            SweepJob job = grid[i];
            job.opts.trace = traces[i];
            if (baseSeed)
                job.cfg.rngSeed = mix64(baseSeed, i + 1);

            watch.control.reset();
            watch.startMs.store(nowMs(), std::memory_order_release);
            watch.phase.store(1, std::memory_order_release);

            ExecContext ctx;
            ctx.jobIndex = i;
            ctx.attempt = static_cast<unsigned>(attempt);
            ctx.control = &watch.control;

            const auto jobStart = std::chrono::steady_clock::now();
            try {
                ScopedRecoverableErrors recover;
                ScopedExecContext scope(ctx);
                RunResult r = runSimulation(*job.program, job.cfg,
                                            job.opts);
                jobSeconds[i] += secondsSince(jobStart);
                r.attempts = attempt;
                results[i] = std::move(r);
            } catch (const SimError &e) {
                jobSeconds[i] += secondsSince(jobStart);
                if (e.retryable() && attempt <= pol.maxRetries) {
                    ELFSIM_WARN("job %zu attempt %llu failed "
                                "transiently: %s (retrying)",
                                i, static_cast<unsigned long long>(
                                       attempt),
                                e.what());
                    continue;
                }
                results[i] = degradedResult(
                    grid[i], jobStatusForError(e), e.what(), attempt);
            } catch (const std::exception &e) {
                jobSeconds[i] += secondsSince(jobStart);
                results[i] = degradedResult(grid[i], JobStatus::Failed,
                                            e.what(), attempt);
            }
            break;
        }
        watch.phase.store(2, std::memory_order_release);
        journal(i);
    };

    // Watchdog monitor: one background thread scanning every running
    // job's control block. The hot simulation loop only ever reads an
    // atomic flag; all clock arithmetic lives here.
    std::atomic<bool> stopMonitor{false};
    std::thread monitor;
    if (pol.watchdogEnabled() || handlersInstalled.load()) {
        monitor = std::thread([&] {
            while (!stopMonitor.load(std::memory_order_acquire)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                const bool interrupted = interruptRequested();
                const std::int64_t now = nowMs();
                for (std::size_t i = 0; i < watches.size(); ++i) {
                    JobWatch &w = watches[i];
                    if (w.phase.load(std::memory_order_acquire) != 1)
                        continue;
                    if (interrupted)
                        w.control.requestCancel(
                            CancelReason::Interrupted);
                    const std::int64_t start =
                        w.startMs.load(std::memory_order_acquire);
                    const std::uint64_t beat =
                        w.control.heartbeat.load(
                            std::memory_order_relaxed);
                    if (beat != w.seenBeat) {
                        w.seenBeat = beat;
                        w.seenBeatMs = now;
                    }
                    if (pol.deadlineSeconds > 0 &&
                        double(now - start) / 1e3 > pol.deadlineSeconds)
                        w.control.requestCancel(CancelReason::Deadline);
                    if (pol.stallSeconds > 0) {
                        const std::int64_t alive =
                            std::max(w.seenBeatMs, start);
                        if (double(now - alive) / 1e3 > pol.stallSeconds)
                            w.control.requestCancel(
                                CancelReason::Stalled);
                    }
                }
            }
        });
    }

    try {
        if (threads <= 1 || grid.size() <= 1) {
            for (std::size_t i = 0; i < grid.size(); ++i)
                if (!done[i])
                    runOne(i);
        } else {
            ThreadPool pool(threads);
            for (std::size_t i = 0; i < grid.size(); ++i)
                if (!done[i])
                    pool.submit([&runOne, i] { runOne(i); });
            pool.wait();
        }
    } catch (...) {
        stopMonitor.store(true, std::memory_order_release);
        if (monitor.joinable())
            monitor.join();
        throw;
    }
    stopMonitor.store(true, std::memory_order_release);
    if (monitor.joinable())
        monitor.join();

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
