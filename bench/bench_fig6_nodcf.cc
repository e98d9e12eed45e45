/**
 * @file
 * Figure 6 equivalent: performance of a pipeline WITHOUT the
 * decoupled fetcher (NoDCF) relative to the DCF baseline, with the
 * branch MPKI on the secondary axis — plus the Server-1 BTB hit rates
 * quoted in Section VI-A.
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
        "Figure 6 — NoDCF IPC relative to DCF (plus branch MPKI)",
        "> 1.0 means the workload runs faster WITHOUT the decoupled "
        "fetcher (high-MPKI cases); server 1 collapses without the "
        "FAQ's instruction prefetch");

    const SweepSpec spec = bench::finalizeSpec(
        bench::fig6Spec(opt.runOptions()), opt, argv[0]);
    const ExpandedSweep ex = expandSweep(spec);

    SweepRunner runner(bench::specJobs(opt, spec));
    runner.setBaseSeed(spec.baseSeed);
    const std::vector<RunResult> res = runner.run(ex.jobs);

    if (!opt.specPath.empty()) {
        bench::printResultsTable(res, ex.labels);
    } else {
        std::printf("%-18s %10s %10s %12s %10s\n", "workload",
                    "DCF IPC", "NoDCF rel", "branch MPKI",
                    "BTB L0/L1/L2");
        for (std::size_t i = 0; i + 1 < res.size(); i += 2) {
            const RunResult &dcf = res[i];
            const RunResult &nod = res[i + 1];
            std::printf(
                "%-18s %10.3f %10.3f %12.1f %4.0f/%2.0f/%2.0f%%\n",
                dcf.workload.c_str(), dcf.ipc, nod.ipc / dcf.ipc,
                dcf.branchMpki, 100 * dcf.btbHitL0,
                100 * dcf.btbHitL1, 100 * dcf.btbHitL2);
            std::fflush(stdout);
        }
        std::printf("\npaper shape: NoDCF ~0.6 on server 1 (prefetch "
                    "loss); NoDCF can exceed 1.0 only when MPKI is "
                    "high and the footprint is small.\n");
    }
    bench::exportResults(opt, runner);
    bench::printSweepTiming(runner);
    return bench::exitCode(runner);
}
