/**
 * @file
 * Parallel sweep engine: runs a grid of independent (workload,
 * variant) simulation jobs on a work-stealing thread pool and merges
 * the results back in submission order, so parallel output is
 * bit-identical to a serial run of the same grid.
 *
 * Every figure of the paper is such a sweep; the per-figure bench
 * harnesses build a grid, hand it to a SweepRunner, and format the
 * merged results. Thread count comes from (in priority order) the
 * explicit constructor argument / `--jobs N`, the `ELFSIM_JOBS`
 * environment variable, then hardware concurrency.
 *
 * Determinism: each Core owns all of its state (the audit found no
 * global mutable simulator state; predictor allocation RNGs are
 * per-instance), and a job's optional RNG seed is derived from its
 * submission index — never from thread identity — so the results of a
 * grid do not depend on the number of worker threads.
 *
 * Fault tolerance: a job that panics, throws, hangs or overruns its
 * deadline degrades to a failed cell (RunResult::status != Ok,
 * metrics zeroed, error recorded) and the rest of the grid completes. Transient errors retry up to
 * SweepPolicy::maxRetries extra attempts. A JSONL manifest journals
 * each finished cell as it completes, so a killed sweep resumes with
 * `resume = true` re-running only the unfinished cells — merged
 * output is byte-identical to an uninterrupted run.
 */

#ifndef ELFSIM_SIM_SWEEP_HH
#define ELFSIM_SIM_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/runner.hh"
#include "workload/checkpoint_store.hh"
#include "workload/trace_cache.hh"

namespace elfsim {

/** One cell of a sweep grid. The program must outlive the sweep. */
struct SweepJob
{
    const Program *program = nullptr;
    SimConfig cfg;
    RunOptions opts;
};

/** Convenience: grid cell for a named variant of a program. */
SweepJob makeVariantJob(const Program &prog, FrontendVariant variant,
                        const RunOptions &opts = {});

/** Wall-clock accounting of the last sweep (speedup reporting). */
struct SweepTiming
{
    unsigned jobs = 0;
    unsigned threads = 0;
    double wallSeconds = 0;     ///< whole-sweep wall-clock
    double serialSeconds = 0;   ///< sum of per-job wall-clocks
    std::uint64_t simCycles = 0; ///< aggregate measured cycles
    std::uint64_t simInsts = 0;  ///< aggregate measured instructions

    double
    cyclesPerSecond() const
    {
        return wallSeconds > 0 ? double(simCycles) / wallSeconds : 0;
    }

    /** Realized parallel speedup vs. running the grid serially. */
    double
    speedup() const
    {
        return wallSeconds > 0 ? serialSeconds / wallSeconds : 0;
    }
};

/** Fault-tolerance policy of a sweep. Per-job errors (including
 *  recoverable panics) always degrade to failed cells; the rest of the
 *  grid completes. */
struct SweepPolicy
{
    /** Per-job wall-clock limit in seconds; 0 disables. An overrun
     *  job is cancelled cooperatively and its cell marked timeout. */
    double deadlineSeconds = 0;

    /** Watchdog stall limit: cancel a job whose committed-instruction
     *  heartbeat has not advanced for this many seconds; 0 disables.
     *  Catches hangs long before a generous deadline would. */
    double stallSeconds = 0;

    /** Extra attempts for cells failing with a TransientError. */
    unsigned maxRetries = 0;

    /** JSONL journal of completed cells (crash-safe resume); empty
     *  disables journaling. */
    std::string manifestPath;

    /** Reuse ok cells recorded in manifestPath (index and jobKey must
     *  both match) and re-run only the rest. New completions append
     *  to the manifest. */
    bool resume = false;

    bool
    watchdogEnabled() const
    {
        return deadlineSeconds > 0 || stallSeconds > 0;
    }
};

/** Thread-pooled grid runner with deterministic result merging. */
class SweepRunner
{
  public:
    /** @a threads = 0 resolves via ELFSIM_JOBS, then hardware. */
    explicit SweepRunner(unsigned threads = 0);

    /**
     * When non-zero, job i runs with SimConfig::rngSeed =
     * mix64(seed, i + 1): deterministic per submission slot, so
     * results stay independent of the thread count. 0 (default)
     * leaves each job's config untouched — output then matches the
     * legacy serial harnesses bit for bit.
     */
    void setBaseSeed(std::uint64_t seed) { baseSeed = seed; }

    /** Replace the fault-tolerance policy (defaults: no watchdog, no
     *  retries, no manifest). */
    void setPolicy(SweepPolicy p) { pol = std::move(p); }

    const SweepPolicy &policy() const { return pol; }

    /**
     * Run every job and return results indexed by submission order.
     * With 1 thread (or a 1-job grid) the jobs run inline on the
     * calling thread — the serial reference path.
     *
     * Before the per-job timers start, each distinct (program
     * content, instruction budget) pair in the grid has its compiled
     * trace acquired once from the process-wide TraceCache; every
     * cell of a workload then shares the same immutable buffer, and
     * compilation cost never lands in perJobSeconds(). A disabled
     * TraceCache makes this a no-op (fully lazy cells).
     */
    std::vector<RunResult> run(const std::vector<SweepJob> &grid);

    unsigned threadCount() const { return threads; }

    /** Timing of the most recent run(). */
    const SweepTiming &timing() const { return lastTiming; }

    /** Trace-compilation activity during the most recent run()
     *  (TraceCache counter deltas captured across run()). */
    const TraceStats &traceStats() const { return lastTraceStats; }

    /** Checkpoint-store activity during the most recent run()
     *  (CheckpointStore counter deltas captured across run()). */
    const CkptStats &ckptStats() const { return lastCkptStats; }

    /** Functional-warming work split accumulated by the last run(). */
    const WarmStats &warmStats() const { return lastWarmStats; }

    /** Results of the most recent run(), in submission order. */
    const std::vector<RunResult> &results() const { return lastResults; }

    /** Cells of the most recent run() that did not complete ok. */
    std::size_t failedCells() const;

    /**
     * Stable identity of grid cell @a i — workload, variant, window
     * sizes and the effective RNG seed. A manifest entry is only
     * reused on resume when both its index and its key match, so a
     * stale manifest from a different grid never contaminates
     * results.
     */
    std::string jobKey(const SweepJob &job, std::size_t i) const;

    /**
     * Install SIGINT/SIGTERM handlers that raise a process-wide
     * interrupt flag. A running sweep notices (watchdog monitor
     * cancels in-flight jobs; queued jobs degrade to cancelled cells)
     * and run() returns with partial results, which the bench
     * harnesses then flush — so a Ctrl-C mid-sweep still exports
     * everything finished so far and the manifest stays resumable.
     */
    static void installSignalHandlers();

    /** Has a SIGINT/SIGTERM arrived since clearInterrupt()? */
    static bool interruptRequested();

    /** Reset the interrupt flag (tests; start of a new sweep). */
    static void clearInterrupt();

    /**
     * Per-job wall-clock seconds of the most recent run(), in
     * submission order (parallel to results()). This is what the
     * throughput benchmark divides simulated instructions by to get
     * per-job simulated MIPS.
     */
    const std::vector<double> &perJobSeconds() const { return jobSeconds; }

    /**
     * Write the last run's results + timing as an elfsim-results-v2
     * JSON document (sim/export.hh). The "results" portion depends
     * only on the simulated grid, never on thread count; "timing" is
     * the one wall-clock-dependent block.
     */
    void writeJson(const std::string &path) const;

    /**
     * Write the last run's results as a flat CSV table. If any
     * result carries an interval timeline, the per-interval rows go
     * to a sibling file with ".timeline.csv" substituted for the
     * ".csv" suffix (appended if the path has none).
     */
    void writeCsv(const std::string &path) const;

    /**
     * Dump the per-sweep timing summary (jobs, threads, wall-clock,
     * aggregate simulated cycles/sec, realized speedup) through the
     * stats machinery.
     */
    void printTimingSummary(std::ostream &os) const;

    /** Resolve a thread count: @a requested, else $ELFSIM_JOBS, else
     *  hardware concurrency; never less than 1. An $ELFSIM_JOBS that
     *  is not a decimal from 1 to UINT_MAX warns and is ignored. */
    static unsigned resolveJobs(unsigned requested = 0);

  private:
    unsigned threads;
    std::uint64_t baseSeed = 0;
    SweepPolicy pol;
    SweepTiming lastTiming;
    TraceStats lastTraceStats;  ///< TraceCache activity, last run
    CkptStats lastCkptStats;    ///< CheckpointStore activity, last run
    WarmStats lastWarmStats;    ///< warming kernel activity, last run
    std::vector<RunResult> lastResults; ///< merged results, last run
    std::vector<double> jobSeconds; ///< per-job wall-clocks, last run
};

} // namespace elfsim

#endif // ELFSIM_SIM_SWEEP_HH
