/**
 * @file
 * Ablation study of ELF's design choices (DESIGN.md's per-experiment
 * index calls these out; the paper discusses each):
 *
 *  1. Checkpoint payload policy (Section IV-D1): populate payloads
 *     from FAQ information (proposed) vs. wait for the ROB head
 *     (simple) vs. idealized free checkpoints.
 *  2. The COND-ELF saturation filter (Section VI-B): speculate only
 *     past saturated bimodal counters, or always.
 *  3. Coupled bimodal size (the paper limits it to 2K x 3-bit).
 *  4. Divergence-tracking capacity (64-entry bitvectors / 16-entry
 *     target queues in Table II).
 *  5. FAQ depth (32 in Table II).
 *
 * The rows live in bench_specs.hh::ablationElfSpec as ConfigSpec
 * overrides.
 */

#include <vector>

#include "bench_specs.hh"
#include "bench_util.hh"

using namespace elfsim;

int
main(int argc, char **argv)
{
    const bench::Options opt = bench::parseOptions(argc, argv);
    bench::banner("Ablations — ELF design choices",
                  "U-ELF IPC relative to the default U-ELF "
                  "configuration, on the high-MPKI MCTS proxy");

    const SweepSpec spec = bench::finalizeSpec(
        bench::ablationElfSpec(opt.runOptions()), opt, argv[0]);
    const ExpandedSweep ex = expandSweep(spec);

    SweepRunner runner(bench::specJobs(opt, spec));
    runner.setBaseSeed(spec.baseSeed);
    const std::vector<RunResult> res = runner.run(ex.jobs);

    if (!opt.specPath.empty()) {
        bench::printResultsTable(res, ex.labels);
    } else {
        const double baseIpc = res[0].ipc;
        std::printf("%-44s %10s\n", "configuration", "rel. IPC");
        for (std::size_t i = 0; i < res.size(); ++i)
            std::printf("%-44s %10.3f\n", ex.labels[i].c_str(),
                        res[i].ipc / baseIpc);
    }
    bench::exportResults(opt, runner);
    bench::printSweepTiming(runner);
    return bench::exitCode(runner);
}
