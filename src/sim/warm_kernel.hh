/**
 * @file
 * Batch functional-warming kernel statistics.
 *
 * The kernel itself is Core::warmKernel (warm_kernel.cc): it replays
 * a window of a compiled trace through the warm structures —
 * predictors, BTB hierarchy, caches — by iterating its event tables
 * (runs, branch events, memory events) instead of the scalar
 * per-instruction loop, with bit-identical training semantics (see
 * DESIGN.md, "Compiled traces and the batch warming kernel"). This
 * header carries the counters it reports and the process-wide
 * accumulator the sweep timing summary reads.
 */

#ifndef ELFSIM_SIM_WARM_KERNEL_HH
#define ELFSIM_SIM_WARM_KERNEL_HH

#include <cstdint>

#include "common/stat_fields.hh"

namespace elfsim {

/**
 * Functional-warming work counters. Per-core instances accumulate
 * across fastForward() calls; recordWarmStats() folds per-run deltas
 * into a process-wide instance for the sweep timing summary.
 *
 * Every field except kernelSeconds is deterministic for a given
 * (workload, schedule) — they are exported per result row.
 * kernelSeconds is wall-clock and stays process-wide only, so result
 * JSON remains byte-identical across thread counts and machines.
 */
struct WarmStats
{
    std::uint64_t kernelInsts = 0;   ///< insts warmed by the kernel
    std::uint64_t scalarInsts = 0;   ///< insts warmed by the scalar loop
    std::uint64_t branchEvents = 0;  ///< branch events replayed
    std::uint64_t linesTouched = 0;  ///< I-side line fetches issued
    double kernelSeconds = 0.0;      ///< wall time inside the kernel

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("kernel_insts", self.kernelInsts);
        v("scalar_insts", self.scalarInsts);
        v("branch_events", self.branchEvents);
        v("lines_touched", self.linesTouched);
        v("kernel_seconds", self.kernelSeconds);
    }

    void add(const WarmStats &o) { stats::add(*this, o); }

    /** This instance minus @a since (counters are monotonic). */
    WarmStats
    delta(const WarmStats &since) const
    {
        return stats::delta(*this, since);
    }
};

/** Fold a per-run delta into the process-wide accumulator
 *  (thread-safe — sweep jobs run concurrently). */
void recordWarmStats(const WarmStats &d);

/** Snapshot of the process-wide accumulator. */
WarmStats processWarmStats();

} // namespace elfsim

#endif // ELFSIM_SIM_WARM_KERNEL_HH
