#include "sim/runner.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"
#include "workload/checkpoint_store.hh"
#include "workload/trace_cache.hh"

namespace elfsim {

namespace {

/** Derive one timeline row from a measured window's snapshot delta. */
IntervalSample
makeSample(const StatSnapshot &d, InstCount startInst)
{
    IntervalSample s;
    s.startInst = startInst;
    s.insts = d.backend.committed;
    s.cycles = d.core.cycles;
    s.ipc = s.cycles ? double(s.insts) / double(s.cycles) : 0.0;
    s.condMispredicts = d.backend.condMispredicts;
    s.targetMispredicts = d.backend.targetMispredicts;
    s.execFlushes = d.core.execFlushes;
    s.memOrderFlushes = d.core.memOrderFlushes;
    s.decodeResteers = d.core.decodeResteers;
    s.divergenceFlushes = d.core.divergenceFlushes;
    s.coupledFrac = s.insts ? double(d.backend.coupledCommitted) /
                                  double(s.insts)
                            : 0.0;
    return s;
}

/** Two-sided 95% Student-t interval multiplier for @a dof degrees of
 *  freedom; converges to the normal quantile past the table. */
double
t95(std::size_t dof)
{
    static const double tab[] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
    if (dof == 0)
        return 0.0;
    if (dof <= sizeof(tab) / sizeof(tab[0]))
        return tab[dof - 1];
    return 1.96;
}

/**
 * Relative systematic-error allowance for functional warming, per
 * fully fast-forwarded instruction fraction. Fast-forward trains
 * predictors and caches on the committed path only: it cannot
 * reproduce wrong-path fetches and fills, so detailed windows start
 * from slightly cleaner caches than the full machine would have and
 * measure slightly fast. Empirically the effect tops out near 5% of
 * IPC on the branchy / large-footprint catalog workloads when nearly
 * the whole stream is skipped, and shrinks as detailed coverage
 * grows, so it is scaled by the skipped fraction. A variance bound
 * alone cannot see this bias — it is the same in every window.
 */
constexpr double warmingBiasAllowance = 0.05;

/**
 * 95% relative error bound on the sampled IPC estimate: the Student-t
 * confidence half-width on the mean of the per-window IPCs @a xs
 * (sample variance, n - 1; the t quantile matters at the 10-30
 * windows typical here) plus the functional-warming bias allowance
 * for the fraction @a ffFraction of each period that is only
 * functionally warmed. 0 when fewer than two windows — no variance
 * estimate exists.
 */
double
relErr95(const std::vector<double> &xs, double ffFraction)
{
    const std::size_t n = xs.size();
    if (n < 2)
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    const double mean = sum / double(n);
    if (mean <= 0.0)
        return 0.0;
    double var = 0.0;
    for (double x : xs)
        var += (x - mean) * (x - mean);
    var /= double(n - 1);
    return t95(n - 1) * std::sqrt(var / double(n)) / mean +
           warmingBiasAllowance * ffFraction;
}

/** Does the compiled trace (if any) cover stream position @a pos, so
 *  the oracle can reseek there with no generator resume state? */
bool
streamCovers(const std::shared_ptr<const CompiledTrace> &trace,
             InstCount pos)
{
    return trace && pos <= trace->size();
}

/** Fill the summary fields every run shape shares: the accumulated
 *  measurement-window deltas plus the cumulative end-of-run rates. */
void
fillSummary(RunResult &r, const Core &core, const StatSnapshot &d)
{
    r.cycles = d.core.cycles;
    r.insts = d.backend.committed;
    r.ipc = r.cycles ? double(r.insts) / double(r.cycles) : 0.0;

    const double kilo = double(r.insts) / 1000.0;
    const BackendStats &be = d.backend;
    r.condMpki = kilo > 0 ? double(be.condMispredicts) / kilo : 0;
    r.branchMpki =
        kilo > 0
            ? double(be.condMispredicts + be.targetMispredicts) / kilo
            : 0;

    r.execFlushes = d.core.execFlushes;
    r.memOrderFlushes = d.core.memOrderFlushes;
    r.decodeResteers = d.core.decodeResteers;
    r.divergenceFlushes = d.core.divergenceFlushes;
    r.pendingFlushWaits = core.stats().pendingFlushWaits;

    r.btbHitL0 = core.btb().cumulativeHitRate(0);
    r.btbHitL1 = core.btb().cumulativeHitRate(1);
    r.btbHitL2 = core.btb().cumulativeHitRate(2);

    const auto &l0i = core.memory().l0i();
    r.l0iMissRate = l0i.accesses()
                        ? double(l0i.misses()) / double(l0i.accesses())
                        : 0;
    r.l1dMpki = kilo > 0 ? double(d.l1d.misses) / kilo : 0;

    r.wrongPathInsts = core.supply().wrongPathInsts();
    r.instPrefetches = core.elf().stats().instPrefetches;

    r.avgRedirectToFetch = d.core.avgRedirectToFetch();

    r.avgCoupledInsts = core.elf().stats().avgCoupledInstsPerPeriod();
    r.coupledPeriods = core.elf().stats().coupledPeriods;
    r.coupledCommittedFrac =
        r.insts ? double(be.coupledCommitted) / double(r.insts) : 0;
}

/**
 * Sampled execution: partition the total instruction budget into
 * periods of P instructions, run W unmeasured + L measured detailed
 * instructions at the *start* of each period, fast-forward
 * (functional warming) across the remainder, and extrapolate.
 *
 * Window placement is stratified random: each period draws a
 * deterministic pseudo-random offset in [0, P-W-L] for its detailed
 * window and fast-forwards around it. Fixed anchoring is measurably
 * biased here — end-anchored windows never measure the cold-start
 * region at all (IPC estimate biased high on short streams),
 * start-anchored ones extrapolate the coldest slice to a whole period
 * (biased low), and any fixed offset can resonate with periodic phase
 * behavior. Random placement within each stratum is unbiased for the
 * stream average and is what makes the CLT error bound on the
 * per-window IPC spread actually valid. The offset stream is seeded
 * from the schedule alone, so a re-run of the same (program, config,
 * schedule) measures identical positions — results stay bit-exact
 * reproducible and checkpoints keep hitting.
 *
 * Warm-state checkpoints at each detailed-window start are
 * restored/saved through the CheckpointStore, so a re-run of the same
 * (program content, config, schedule) skips every fast-forward.
 *
 * @a opts has passed validateRunOptions.
 */
RunResult
runSampled(const Program &prog, const SimConfig &cfg,
           const RunOptions &opts)
{
    const InstCount P = opts.samplePeriodInsts;
    const InstCount L = opts.sampleLengthInsts;
    const InstCount W = opts.sampleWarmupInsts;
    const std::uint64_t windows =
        (opts.warmupInsts + opts.measureInsts) / P;
    const InstCount ffInsts = P - W - L;
    const std::uint64_t cfgFp = configFingerprint(cfg);
    CheckpointStore &store = CheckpointStore::instance();

    // Back the stream with a compiled trace so fast-forward runs the
    // batch warming kernel over the compiled prefix instead of the
    // scalar per-instruction loop (state-identical either way). The
    // acquisition is capped — streams longer than the cap warm their
    // tail scalar — and a no-op when trace compilation is disabled.
    std::shared_ptr<const CompiledTrace> trace = opts.trace;
    if (!trace)
        trace = TraceCache::instance().acquire(prog, opts.traceInsts());

    // Two attempts: the second only runs if a checkpoint passed every
    // artifact-level check yet its payload failed mid-restore (layout
    // drift), leaving the core half-loaded. That run restarts from
    // scratch with checkpoints disabled — correctness never depends
    // on the cache.
    for (int attempt = 0; attempt < 2; ++attempt) {
        const bool useCkpts = attempt == 0 && store.usable();
        Core core(cfg, prog, trace);
        // Per-window placement offsets; re-seeded per attempt so a
        // checkpoint-pollution restart measures the same positions.
        Rng offsetRng(mix64(P, mix64(L, W)));

        StatSnapshot acc{};
        std::vector<IntervalSample> timeline;
        std::vector<double> ipcs;
        timeline.reserve(windows);
        ipcs.reserve(windows);
        std::uint64_t ckptHits = 0, ckptMisses = 0, ckptSaves = 0;
        std::uint64_t ffTotal = 0; ///< insts fast-forwarded (coherence
                                   ///< witness for the warm counters)
        bool polluted = false;

        for (std::uint64_t w = 0; w < windows; ++w) {
            const InstCount offset =
                ffInsts ? InstCount(offsetRng.below(ffInsts + 1)) : 0;
            const InstCount detailedStart = w * P + offset;
            // Quiesce: drop in-flight work, keep only warm state.
            core.squashToCommitted();

            // A W+L == P schedule has no fast-forward to skip and so
            // never benefits from an artifact.
            const bool ckptHere =
                useCkpts && detailedStart > 0 && ffInsts > 0;
            bool restored = false;
            std::uint64_t key = 0;
            if (ckptHere) {
                key = CheckpointStore::key(prog, cfgFp, P, L, W,
                                           detailedStart);
                std::vector<std::uint8_t> payload;
                if (store.load(prog.name(), key, detailedStart,
                               payload)) {
                    bool coreTouched = false;
                    try {
                        Deserializer d(payload);
                        const bool hasGen = d.boolean();
                        OracleGen gen;
                        if (hasGen)
                            gen.loadState(d);
                        if (hasGen ||
                            streamCovers(trace, detailedStart)) {
                            coreTouched = true;
                            core.loadWarmState(
                                d, detailedStart,
                                hasGen ? &gen : nullptr);
                            restored = true;
                        }
                        // else: artifact carries no generator resume
                        // state and no trace covers the position —
                        // unusable here; fast-forward instead.
                    } catch (const ParseError &e) {
                        if (coreTouched) {
                            // Checksum passed but the layout drifted
                            // mid-load: the core is polluted. Restart
                            // the whole run without checkpoints.
                            ELFSIM_WARN(
                                "checkpoint restore failed mid-load "
                                "(%s); restarting run without "
                                "checkpoints", e.what());
                            polluted = true;
                        } else {
                            ELFSIM_WARN(
                                "checkpoint payload unusable (%s); "
                                "falling back to fast-forward",
                                e.what());
                        }
                    }
                }
            }
            if (polluted)
                break;

            if (restored) {
                ++ckptHits;
            } else {
                if (ckptHere)
                    ++ckptMisses;
                ELFSIM_ASSERT(core.consumedInsts() <= detailedStart,
                              "sampled run overran the window start");
                if (detailedStart > core.consumedInsts()) {
                    ffTotal += detailedStart - core.consumedInsts();
                    core.fastForward(detailedStart -
                                     core.consumedInsts());
                }
                if (ckptHere) {
                    Serializer s;
                    // Persist the generator resume state only when it
                    // is live *and* needed: inside a compiled prefix
                    // the reseek is array-backed.
                    const bool hasGen =
                        core.ffResumeStateValid() &&
                        !streamCovers(trace, detailedStart);
                    s.boolean(hasGen);
                    if (hasGen)
                        core.ffResumeState().saveState(s);
                    core.saveWarmState(s);
                    store.save(prog.name(), key, detailedStart,
                               s.data());
                    ++ckptSaves;
                }
            }

            // Detailed window: unmeasured pipeline warmup, then the
            // measured interval. Both also warm predictors/caches.
            core.run(W);
            const StatSnapshot start = StatSnapshot::capture(core);
            core.run(L);
            const StatSnapshot d =
                StatSnapshot::capture(core).delta(start);
            stats::add(acc, d);
            timeline.push_back(makeSample(d, detailedStart + W));
            ipcs.push_back(timeline.back().ipc);
        }
        if (polluted)
            continue;

        RunResult r;
        r.workload = prog.name();
        r.variant = variantName(cfg.variant);
        fillSummary(r, core, acc);

        // One timeline row per measured window: row insts sum to
        // r.insts, row cycles to r.cycles.
        r.timeline = std::move(timeline);

        r.sampled = true;
        r.sampling.periodInsts = P;
        r.sampling.lengthInsts = L;
        r.sampling.warmupInsts = W;
        r.sampling.windows = windows;
        r.sampling.totalInsts = windows * P;
        r.sampling.measuredInsts = r.insts;
        r.sampling.ipcRelErr95 =
            relErr95(ipcs, double(ffInsts) / double(P));
        r.sampling.estTotalCycles =
            r.insts ? double(r.cycles) * double(r.sampling.totalInsts) /
                          double(r.insts)
                    : 0.0;
        r.sampling.ckptHits = ckptHits;
        r.sampling.ckptMisses = ckptMisses;
        r.sampling.ckptSaves = ckptSaves;

        // Functional-warming work split (counted on the core; the
        // independent ffTotal witnesses kernel + scalar == ff).
        const WarmStats &wd = core.warmStats();
        r.sampling.warmKernelInsts = wd.kernelInsts;
        r.sampling.warmScalarInsts = wd.scalarInsts;
        r.sampling.warmBranchEvents = wd.branchEvents;
        r.sampling.warmLinesTouched = wd.linesTouched;
        r.sampling.warmFfInsts = ffTotal;
        return r;
    }
    throw ParseError("sampled run failed twice; checkpoint store and "
                     "fallback both unusable");
}

} // namespace

InstCount
RunOptions::traceInsts() const
{
    const InstCount all = warmupInsts + measureInsts;
    return sampled() ? std::min(all, maxSampledTraceInsts) : all;
}

void
validateRunOptions(const RunOptions &o)
{
    const auto n = [](InstCount x) { return std::to_string(x); };
    const InstCount P = o.samplePeriodInsts;
    const InstCount L = o.sampleLengthInsts;
    const InstCount W = o.sampleWarmupInsts;
    if (P == 0) {
        if (L > 0 || W > 0)
            throw ConfigError("sample length/warmup need a sample "
                              "period");
        return;
    }
    if (L == 0)
        throw ConfigError("a sample period needs a sample length > 0 "
                          "(the measured window)");
    if (L > P)
        throw ConfigError("sample length (" + n(L) +
                          ") exceeds the sample period (" + n(P) +
                          "): the measured window must fit in the "
                          "period");
    if (W >= P)
        throw ConfigError("sample warmup (" + n(W) +
                          ") must be smaller than the sample period (" +
                          n(P) + ")");
    if (L > P - W)
        throw ConfigError("sample warmup (" + n(W) + ") + length (" +
                          n(L) + ") exceed the sample period (" + n(P) +
                          "): the detailed window must fit in the "
                          "period");
    if ((o.warmupInsts + o.measureInsts) / P == 0)
        throw ConfigError("total instruction budget (" +
                          n(o.warmupInsts + o.measureInsts) +
                          ") is smaller than one sample period (" +
                          n(P) + ")");
}

RunResult
runSimulation(const Program &prog, const SimConfig &cfg,
              const RunOptions &opts)
{
    validateRunOptions(opts);
    if (opts.sampled())
        return runSampled(prog, cfg, opts);

    // The trace only needs to cover the committed-instruction budget;
    // fetch-ahead past it falls through to the lazy tail, which is
    // stream-identical by construction.
    std::shared_ptr<const CompiledTrace> trace = opts.trace;
    if (!trace)
        trace = TraceCache::instance().acquire(prog, opts.traceInsts());
    Core core(cfg, prog, std::move(trace));

    // Warmup: predictors, BTB, and caches train; stats that matter
    // are measured as deltas across the measurement window.
    core.run(opts.warmupInsts);
    const StatSnapshot warm = StatSnapshot::capture(core);

    core.run(opts.measureInsts);
    const StatSnapshot d = StatSnapshot::capture(core).delta(warm);

    RunResult r;
    r.workload = prog.name();
    r.variant = variantName(cfg.variant);
    fillSummary(r, core, d);
    return r;
}

RunResult
runVariant(const Program &prog, FrontendVariant variant,
           const RunOptions &opts)
{
    return runSimulation(prog, makeConfig(variant), opts);
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : xs) {
        ELFSIM_ASSERT(x > 0, "geomean of non-positive value");
        logSum += std::log(x);
    }
    return std::exp(logSum / double(xs.size()));
}

} // namespace elfsim
