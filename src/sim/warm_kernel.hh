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
 * header carries the counters it reports.
 */

#ifndef ELFSIM_SIM_WARM_KERNEL_HH
#define ELFSIM_SIM_WARM_KERNEL_HH

#include <cstdint>

#include "common/stat_fields.hh"

namespace elfsim {

/**
 * Functional-warming work counters. Per-core instances accumulate
 * across fastForward() calls. Every field is deterministic for a
 * given (workload, schedule): a sampled run exports them in its
 * result row's sampling block, and the sweep timing summary sums
 * those rows.
 */
struct WarmStats
{
    std::uint64_t kernelInsts = 0;   ///< insts warmed by the kernel
    std::uint64_t scalarInsts = 0;   ///< insts warmed by the scalar loop
    std::uint64_t branchEvents = 0;  ///< branch events replayed
    std::uint64_t linesTouched = 0;  ///< I-side line fetches issued

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("kernel_insts", self.kernelInsts);
        v("scalar_insts", self.scalarInsts);
        v("branch_events", self.branchEvents);
        v("lines_touched", self.linesTouched);
    }

    void add(const WarmStats &o) { stats::add(*this, o); }
};

} // namespace elfsim

#endif // ELFSIM_SIM_WARM_KERNEL_HH
