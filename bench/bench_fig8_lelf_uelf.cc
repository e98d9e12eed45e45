/**
 * @file
 * Figure 8 equivalent: L-ELF and U-ELF IPC relative to DCF, with the
 * average number of instructions fetched per coupled period.
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
        "Figure 8 — L-ELF and U-ELF IPC relative to DCF "
        "(+ avg coupled insts per period)",
        "U-ELF speculates further in coupled mode than L-ELF; more "
        "coupled instructions = more hidden restart latency");

    const SweepSpec spec = bench::finalizeSpec(
        bench::fig8Spec(opt.runOptions()), opt, argv[0]);
    const ExpandedSweep ex = expandSweep(spec);

    SweepRunner runner(bench::specJobs(opt, spec));
    runner.setBaseSeed(spec.baseSeed);
    const std::vector<RunResult> res = runner.run(ex.jobs);

    if (!opt.specPath.empty()) {
        bench::printResultsTable(res, ex.labels);
    } else {
        std::printf("%-18s %8s | %8s %8s | %8s %8s | %6s\n",
                    "workload", "DCF IPC", "L-ELF", "cpl/per",
                    "U-ELF", "cpl/per", "U div");
        for (std::size_t i = 0; i + 2 < res.size(); i += 3) {
            const RunResult &dcf = res[i];
            const RunResult &l = res[i + 1];
            const RunResult &u = res[i + 2];
            std::printf(
                "%-18s %8.3f | %8.3f %8.1f | %8.3f %8.1f | %6llu\n",
                dcf.workload.c_str(), dcf.ipc, l.ipc / dcf.ipc,
                l.avgCoupledInsts, u.ipc / dcf.ipc,
                u.avgCoupledInsts,
                (unsigned long long)u.divergenceFlushes);
            std::fflush(stdout);
        }
        std::printf("\npaper shape: up to +3.6%% (L) / +5.2%% (U) on "
                    "high-MPKI workloads; U-ELF fetches more per "
                    "period than L-ELF.\n");
    }
    bench::exportResults(opt, runner);
    bench::printSweepTiming(runner);
    return bench::exitCode(runner);
}
