/**
 * @file
 * Figure 3 equivalent: the minimum branch misprediction penalty.
 *
 * The paper's point: with a decoupled fetcher, a flush must
 * re-traverse BP1/BP2/FAQ before the fetcher gets addresses — 3
 * cycles more than a coupled design. We measure the redirect-to-
 * first-fetch latency directly on an always-mispredicting
 * micro-workload for NoDCF, DCF, and the ELF variants (which exist
 * precisely to hide that difference). The four variants run as a
 * sweep grid, so `--jobs`, `--json`, and `--csv` all apply.
 */

#include <vector>

#include "bench_specs.hh"
#include "bench_util.hh"

using namespace elfsim;

int
main(int argc, char **argv)
{
    const bench::Options opt = bench::parseOptions(argc, argv);
    bench::banner(
        "Figure 3 — Minimum branch misprediction penalty",
        "Measured cycles from a mispredict flush to the first fetched "
        "instruction (paper: DCF = coupled + 3)");

    const SweepSpec spec = bench::finalizeSpec(
        bench::fig3Spec(opt.runOptions()), opt, argv[0]);
    const ExpandedSweep ex = expandSweep(spec);

    SweepRunner runner(bench::specJobs(opt, spec));
    runner.setBaseSeed(spec.baseSeed);
    const std::vector<RunResult> res = runner.run(ex.jobs);

    if (!opt.specPath.empty()) {
        bench::printResultsTable(res, ex.labels);
    } else {
        std::printf("%-10s %22s %14s\n", "frontend",
                    "redirect->fetch(cyc)", "rel. to NoDCF");
        const double base = res[0].avgRedirectToFetch;
        for (const RunResult &r : res)
            std::printf("%-10s %22.2f %+14.2f\n", r.variant.c_str(),
                        r.avgRedirectToFetch,
                        r.avgRedirectToFetch - base);
        std::printf("\npaper: DCF pays +3 cycles (BP1/BP2/FAQ); ELF "
                    "re-enters coupled mode and hides them.\n");
    }
    bench::exportResults(opt, runner);
    bench::printSweepTiming(runner);
    return bench::exitCode(runner);
}
