/**
 * @file
 * Ablation study of the decoupled fetcher itself — quantifying the
 * trade-offs the paper's introduction describes:
 *
 *  1. Decoupling depth (BP1->FE): deeper pipelines expose more flush
 *     latency (the cost ELF exists to hide).
 *  2. The L0 BTB: without it every taken branch pays the BP2 resteer
 *     bubble even in steady state.
 *  3. FAQ-directed instruction prefetch: the mechanism behind the
 *     paper's "server 1 improves 40% with DCF".
 *  4. FAQ depth: how much run-ahead the prefetcher and bubble-hiding
 *     can exploit.
 *
 * Run on the high-MPKI MCTS proxy (flush-sensitive) and the server-1
 * proxy (footprint-sensitive). The rows live in
 * bench_specs.hh::ablationDcfSpec as ConfigSpec overrides.
 */

#include <vector>

#include "bench_specs.hh"
#include "bench_util.hh"

using namespace elfsim;

int
main(int argc, char **argv)
{
    const bench::Options opt = bench::parseOptions(argc, argv);
    bench::banner("Ablations — decoupled fetcher design choices",
                  "DCF IPC relative to the Table II baseline");

    const SweepSpec spec = bench::finalizeSpec(
        bench::ablationDcfSpec(opt.runOptions()), opt, argv[0]);
    const ExpandedSweep ex = expandSweep(spec);

    SweepRunner runner(bench::specJobs(opt, spec));
    runner.setBaseSeed(spec.baseSeed);
    const std::vector<RunResult> res = runner.run(ex.jobs);

    if (!opt.specPath.empty()) {
        bench::printResultsTable(res, ex.labels);
        bench::exportResults(opt, runner);
        bench::printSweepTiming(runner);
        return bench::exitCode(runner);
    }

    // One grid covers both workloads; rows per workload = the config
    // rows of the native spec's single group.
    const std::size_t nRows = spec.groups[0].configs.size();
    for (std::size_t s = 0; s * nRows < res.size(); ++s) {
        const std::size_t first = s * nRows;
        const double baseIpc = res[first].ipc;
        std::printf("\n[%s]  baseline DCF IPC %.3f\n",
                    res[first].workload.c_str(), baseIpc);
        std::printf("  %-42s %10s\n", "configuration", "rel. IPC");
        for (std::size_t i = 1; i < nRows; ++i)
            std::printf("  %-42s %10.3f\n",
                        ex.labels[first + i].c_str(),
                        res[first + i].ipc / baseIpc);
    }

    std::printf("\nreading guide: the BP1->FE sweep is the cost ELF "
                "hides; the no-prefetch row is\nthe paper's server-1 "
                "'DCF +40%%' mechanism; the no-L0-BTB row is the "
                "steady-state\ntaken-branch bubble the decoupled L0 "
                "BTB removes.\n");
    bench::exportResults(opt, runner);
    bench::printSweepTiming(runner);
    return bench::exitCode(runner);
}
