/**
 * @file
 * One-shot simulation driver: builds a core for a (workload, variant)
 * pair, runs warmup + measurement, and collects the metrics every
 * experiment consumes.
 */

#ifndef ELFSIM_SIM_RUNNER_HH
#define ELFSIM_SIM_RUNNER_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/stat_fields.hh"
#include "sim/core.hh"

namespace elfsim {

/**
 * One row of the interval timeline: the measurement-window deltas
 * accumulated over one sampling period of `RunOptions::intervalInsts`
 * committed instructions. Explains *when* within a run cycles went —
 * e.g. coupled-mode occupancy right after flush bursts (the paper's
 * Figure 8 phenomenon, resolved over time).
 */
struct IntervalSample
{
    InstCount startInst = 0; ///< insts committed in the measurement
                             ///< window before this interval began
    InstCount insts = 0;     ///< insts committed in this interval
    Cycle cycles = 0;
    double ipc = 0;

    std::uint64_t condMispredicts = 0;
    std::uint64_t targetMispredicts = 0;
    std::uint64_t execFlushes = 0;
    std::uint64_t memOrderFlushes = 0;
    std::uint64_t decodeResteers = 0;
    std::uint64_t divergenceFlushes = 0;
    double coupledFrac = 0;  ///< fraction of this interval's commits
                             ///< fetched in coupled mode

    /**
     * Visit every field as ("name", member) — the single source of
     * truth the exporters, the results loader, and the tests
     * enumerate instead of hand-listing fields. @a self is an
     * IntervalSample (const for export, mutable for loading); @a v
     * must accept (const char *, std::uint64_t) and (const char *,
     * double) — references when @a self is non-const.
     */
    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("start_inst", self.startInst);
        v("insts", self.insts);
        v("cycles", self.cycles);
        v("ipc", self.ipc);
        v("cond_mispredicts", self.condMispredicts);
        v("target_mispredicts", self.targetMispredicts);
        v("exec_flushes", self.execFlushes);
        v("mem_order_flushes", self.memOrderFlushes);
        v("decode_resteers", self.decodeResteers);
        v("divergence_flushes", self.divergenceFlushes);
        v("coupled_frac", self.coupledFrac);
    }

    template <typename V>
    void
    forEachField(V &&v) const
    {
        visitFields(*this, std::forward<V>(v));
    }
};

/**
 * Extrapolation summary of a sampled run (RunOptions sampling fields).
 * The companion RunResult's `cycles`/`insts`/`ipc` cover only the
 * measured windows; this block scales them to the whole stream and
 * bounds the sampling error: the true whole-run IPC lies within
 * `ipc * (1 ± ipcRelErr95)` with ~95% confidence. The bound is the
 * Student-t confidence half-width on the per-window IPC mean
 * (treating windows as independent draws — valid because window
 * placement is stratified random) plus a systematic allowance for
 * functional-warming infidelity (fast-forward cannot reproduce
 * wrong-path cache and predictor effects), scaled by the
 * fast-forwarded fraction of each period.
 */
struct SamplingInfo
{
    InstCount periodInsts = 0;   ///< sampling period P
    InstCount lengthInsts = 0;   ///< measured window per period (L)
    InstCount warmupInsts = 0;   ///< detailed unmeasured warmup (W)
    std::uint64_t windows = 0;   ///< periods simulated (n)
    InstCount totalInsts = 0;    ///< stream insts covered (n * P)
    InstCount measuredInsts = 0; ///< measured-window insts (n * L)
    double ipcRelErr95 = 0;      ///< 95% relative error bound on IPC
    double estTotalCycles = 0;   ///< cycles extrapolated to totalInsts

    // Checkpoint-store activity for this run (local to the cell, so
    // parallel sweep jobs report deterministic per-cell numbers).
    std::uint64_t ckptHits = 0;
    std::uint64_t ckptMisses = 0;
    std::uint64_t ckptSaves = 0;

    // Functional-warming work split for this run (see
    // sim/warm_kernel.hh). Deterministic for a given (workload,
    // schedule): kernel vs scalar split depends only on the compiled-
    // prefix length, never on thread count or wall-clock, so these
    // are safe in byte-compared result JSON. warmFfInsts counts the
    // total instructions fast-forwarded (kernel + scalar by
    // construction; exported independently so check_results.py can
    // verify the coherence rather than assume it).
    std::uint64_t warmKernelInsts = 0;
    std::uint64_t warmScalarInsts = 0;
    std::uint64_t warmBranchEvents = 0;
    std::uint64_t warmLinesTouched = 0;
    std::uint64_t warmFfInsts = 0;

    /** Field visitor; see IntervalSample::visitFields. */
    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("period_insts", self.periodInsts);
        v("length_insts", self.lengthInsts);
        v("warmup_insts", self.warmupInsts);
        v("windows", self.windows);
        v("total_insts", self.totalInsts);
        v("measured_insts", self.measuredInsts);
        v("ipc_rel_err_95", self.ipcRelErr95);
        v("est_total_cycles", self.estTotalCycles);
        v("ckpt_hits", self.ckptHits);
        v("ckpt_misses", self.ckptMisses);
        v("ckpt_saves", self.ckptSaves);
        v("warm_kernel_insts", self.warmKernelInsts);
        v("warm_scalar_insts", self.warmScalarInsts);
        v("warm_branch_events", self.warmBranchEvents);
        v("warm_lines_touched", self.warmLinesTouched);
        v("warm_ff_insts", self.warmFfInsts);
    }

    template <typename V>
    void
    forEachField(V &&v) const
    {
        visitFields(*this, std::forward<V>(v));
    }
};

/** Aggregated results of one simulation run (measurement window). */
struct RunResult
{
    std::string workload;
    std::string variant;

    Cycle cycles = 0;
    InstCount insts = 0;
    double ipc = 0;

    double branchMpki = 0;       ///< direction + target, per kilo-inst
    double condMpki = 0;
    std::uint64_t execFlushes = 0;
    std::uint64_t memOrderFlushes = 0;
    std::uint64_t decodeResteers = 0;
    std::uint64_t divergenceFlushes = 0;

    double btbHitL0 = 0;         ///< cumulative per-level hit rates
    double btbHitL1 = 0;
    double btbHitL2 = 0;

    double l0iMissRate = 0;
    double l1dMpki = 0;

    std::uint64_t wrongPathInsts = 0;
    std::uint64_t instPrefetches = 0;

    /** Measured redirect-to-first-fetch restart latency, averaged
     *  over the window's mispredict flushes (Figure 3's quantity). */
    double avgRedirectToFetch = 0;

    // ELF-specific
    double avgCoupledInsts = 0;  ///< per coupled period (Figure 8)
    std::uint64_t coupledPeriods = 0;
    double coupledCommittedFrac = 0;
    std::uint64_t pendingFlushWaits = 0;

    /**
     * Cell outcome in a sweep (JobStatus::Ok for a clean run). A
     * failed cell has the metric fields above zeroed and `error`
     * carrying the failure detail. `attempts` is always 1; it stays
     * in every exported row so existing row digests hold.
     */
    JobStatus status = JobStatus::Ok;
    std::string error;
    std::uint64_t attempts = 1;

    /** Sampling period the timeline was captured with (0 = off). */
    InstCount intervalInsts = 0;
    /** Per-interval delta rows; empty unless intervalInsts > 0. */
    std::vector<IntervalSample> timeline;

    /**
     * True when this result came from a sampled run: the summary
     * scalars cover only the measured windows, the timeline holds one
     * row per window (startInst = absolute stream position), and
     * `sampling` carries the whole-run extrapolation. Serialized
     * separately from visitFields, like `timeline`.
     */
    bool sampled = false;
    SamplingInfo sampling;

    /**
     * Visit every scalar field as ("name", member) in declaration
     * order — the single source of truth for the JSON/CSV exporters,
     * the bench table formatters, the results loader, and
     * test_sweep's determinism check. @a self is a RunResult (const
     * for export, mutable for loading); @a v must accept (const char
     * *, std::string), (const char *, std::uint64_t) and (const char
     * *, double) — references when @a self is non-const. `status`,
     * `intervalInsts` and `timeline` are serialized separately (see
     * sim/export.hh) since they are not summary scalars.
     */
    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("workload", self.workload);
        v("variant", self.variant);
        v("cycles", self.cycles);
        v("insts", self.insts);
        v("ipc", self.ipc);
        v("branch_mpki", self.branchMpki);
        v("cond_mpki", self.condMpki);
        v("exec_flushes", self.execFlushes);
        v("mem_order_flushes", self.memOrderFlushes);
        v("decode_resteers", self.decodeResteers);
        v("divergence_flushes", self.divergenceFlushes);
        v("btb_hit_l0", self.btbHitL0);
        v("btb_hit_l1", self.btbHitL1);
        v("btb_hit_l2", self.btbHitL2);
        v("l0i_miss_rate", self.l0iMissRate);
        v("l1d_mpki", self.l1dMpki);
        v("wrong_path_insts", self.wrongPathInsts);
        v("inst_prefetches", self.instPrefetches);
        v("avg_redirect_to_fetch", self.avgRedirectToFetch);
        v("avg_coupled_insts", self.avgCoupledInsts);
        v("coupled_periods", self.coupledPeriods);
        v("coupled_committed_frac", self.coupledCommittedFrac);
        v("pending_flush_waits", self.pendingFlushWaits);
        v("error", self.error);
        v("attempts", self.attempts);
    }

    template <typename V>
    void
    forEachField(V &&v) const
    {
        visitFields(*this, std::forward<V>(v));
    }

    /** Did this cell complete? */
    bool ok() const { return status == JobStatus::Ok; }
};

/** Options for a run. */
struct RunOptions
{
    InstCount warmupInsts = 100000;
    InstCount measureInsts = 500000;

    /**
     * Capture an IntervalSample every this many committed
     * instructions of the measurement window (the last interval may
     * be shorter). 0 (default) disables timeline capture. Sampling
     * does not perturb the simulation: the core ticks through the
     * exact same sequence either way.
     */
    InstCount intervalInsts = 0;

    /**
     * Sampled execution (SMARTS-style, without stream rewind): > 0
     * partitions the total budget (warmupInsts + measureInsts) into
     * periods of this many instructions. Each period fast-forwards
     * through functional warming (predictors + caches only), then
     * runs `sampleWarmupInsts` detailed unmeasured instructions, then
     * measures `sampleLengthInsts` detailed instructions. Summary
     * stats cover the measured windows; RunResult::sampling carries
     * the whole-run extrapolation and its error bound. Mutually
     * exclusive with intervalInsts. Warm-state checkpoints are
     * saved/restored through CheckpointStore when it is usable, so
     * re-runs skip the fast-forward entirely.
     */
    InstCount samplePeriodInsts = 0;
    /** Measured detailed window per period; required > 0 when
     *  sampling. sampleWarmupInsts + sampleLengthInsts must fit in
     *  the period. */
    InstCount sampleLengthInsts = 0;
    /** Detailed-but-unmeasured pipeline warmup per period (drains the
     *  cold-pipeline transient after the fast-forward). */
    InstCount sampleWarmupInsts = 0;

    /** Is sampled execution enabled? */
    bool sampled() const { return samplePeriodInsts > 0; }

    /**
     * Compiled architectural trace to back the oracle stream with
     * (callers holding one — the sweep engine — pass it so every cell
     * of a workload shares the same buffer). When null, runSimulation
     * asks the process-wide TraceCache, which compiles the stream
     * once per distinct program and is a no-op when trace compilation
     * is disabled. Behaviour-neutral in all cases. Sampled runs ask
     * for at most the first maxSampledTraceInsts instructions (a full
     * 100M-instruction stream would cost gigabytes); the batch
     * warming kernel covers the compiled prefix and the scalar loop
     * the lazy tail.
     */
    std::shared_ptr<const CompiledTrace> trace;
};

/**
 * The one copy of the run-shape rules: a sampling schedule must have
 * a measured window, fit its detailed window in the period and its
 * period in the instruction budget, and exclude interval capture;
 * sample length/warmup need a period. Throws ConfigError naming the
 * broken rule. The runner, the sweep-spec validator and the bench
 * command line all check through this.
 */
void validateRunOptions(const RunOptions &o);

/**
 * Cap on the compiled-trace prefix a sampled run acquires for the
 * batch warming kernel (instructions). 2^26 insts is roughly 0.24 to
 * 0.41 GiB of v4 artifact per distinct workload content (3.9 to 6.5
 * bytes per instruction) — large enough to cover the whole stream for
 * every catalog/bench workload in use, small enough to bound
 * cache-directory growth. Streams longer than this warm the tail with
 * the scalar loop (state-identical either way).
 */
constexpr InstCount maxSampledTraceInsts = InstCount(1) << 26;

/**
 * Point-in-time copy of the counter groups runSimulation reports as
 * deltas across the measurement window. Usage: capture() after
 * warmup, run the measurement window, then delta() against a fresh
 * capture.
 */
struct StatSnapshot
{
    CoreStats core;
    BackendStats backend;
    CacheStats l1d;

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("core", self.core);
        v("backend", self.backend);
        v("l1d", self.l1d);
    }

    /** Copy every windowed group off the core. */
    static StatSnapshot
    capture(const Core &c)
    {
        return {c.stats(), c.backend().stats(), c.memory().l1d().stats()};
    }

    /** Fieldwise `*this - since` (the measurement-window deltas). */
    StatSnapshot
    delta(const StatSnapshot &since) const
    {
        return stats::delta(*this, since);
    }
};

/** Build the program's core and run warmup + measurement. */
RunResult runSimulation(const Program &prog, const SimConfig &cfg,
                        const RunOptions &opts = {});

/** Convenience: run a named variant on a program. */
RunResult runVariant(const Program &prog, FrontendVariant variant,
                     const RunOptions &opts = {});

/** Geometric mean of relative IPCs (paper Figure 9). */
double geomean(const std::vector<double> &xs);

} // namespace elfsim

#endif // ELFSIM_SIM_RUNNER_HH
