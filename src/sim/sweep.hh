/**
 * @file
 * Parallel sweep engine: runs a grid of independent (workload,
 * variant) simulation jobs on plain worker threads that take cells in
 * index order from one shared counter, and stores each result at its
 * cell's index, so parallel output is bit-identical to a serial run of
 * the same grid.
 *
 * Every figure of the paper is such a sweep; the per-figure bench
 * harnesses build a grid, hand it to a SweepRunner, and format the
 * merged results. The thread count is the constructor argument
 * (`--jobs N`), or hardware concurrency when that is 0.
 *
 * Determinism: each Core owns all of its state (the audit found no
 * global mutable simulator state; predictor allocation RNGs are
 * per-instance), and a job's optional RNG seed is derived from its
 * submission index — never from thread identity — so the results of a
 * grid do not depend on the number of worker threads.
 *
 * Failed cells: a job that throws or panics (a bad option, the
 * core's no-progress panic, any recoverable invariant violation)
 * degrades to a failed cell (RunResult::status == Failed, metrics
 * zeroed, error recorded) and the rest of the grid completes.
 *
 * The timing summary's trace and ckpt groups are counter deltas of
 * the process-wide TraceCache and CheckpointStore across run(); its
 * warm group sums the grid's result rows, so no cell writes shared
 * state to feed it.
 */

#ifndef ELFSIM_SIM_SWEEP_HH
#define ELFSIM_SIM_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
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

/** Kept only because the benchmark driver calls
 *  SweepRunner::setPolicy(spec.policy); it has no fields. */
struct SweepPolicy
{
};

/** Multi-threaded grid runner with deterministic result merging. */
class SweepRunner
{
  public:
    /** @a threads = 0 means one per hardware thread. */
    explicit SweepRunner(unsigned threads = 0);

    /**
     * When non-zero, job i runs with SimConfig::rngSeed =
     * mix64(seed, i + 1): deterministic per submission slot, so
     * results stay independent of the thread count. 0 (default)
     * leaves each job's config untouched — output then matches the
     * legacy serial harnesses bit for bit.
     */
    void setBaseSeed(std::uint64_t seed) { baseSeed = seed; }

    /** No-op, kept for the benchmark driver (see SweepPolicy). */
    void setPolicy(const SweepPolicy &) {}

    /**
     * Run every job and return results indexed by submission order.
     * The calling thread works too, beside min(threads, jobs) - 1
     * helper threads; with 1 thread (or a 1-job grid) the jobs run
     * inline on the calling thread — the serial reference path.
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

    /** Functional-warming work split of the most recent run(): the
     *  sum of its rows' sampling blocks (zero for unsampled rows). */
    const WarmStats &warmStats() const { return lastWarmStats; }

    /** Results of the most recent run(), in submission order. */
    const std::vector<RunResult> &results() const { return lastResults; }

    /** Cells of the most recent run() that did not complete ok. */
    std::size_t failedCells() const;

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
     * Dump the per-sweep timing summary (jobs, threads, wall-clock,
     * aggregate simulated cycles/sec, realized speedup) through the
     * stats machinery.
     */
    void printTimingSummary(std::ostream &os) const;

    /** Resolve a thread count: @a requested, else hardware
     *  concurrency; never less than 1. */
    static unsigned resolveJobs(unsigned requested = 0);

  private:
    unsigned threads;
    std::uint64_t baseSeed = 0;
    SweepTiming lastTiming;
    TraceStats lastTraceStats;  ///< TraceCache activity, last run
    CkptStats lastCkptStats;    ///< CheckpointStore activity, last run
    WarmStats lastWarmStats;    ///< warming kernel activity, last run
    std::vector<RunResult> lastResults; ///< merged results, last run
    std::vector<double> jobSeconds; ///< per-job wall-clocks, last run
};

} // namespace elfsim

#endif // ELFSIM_SIM_SWEEP_HH
