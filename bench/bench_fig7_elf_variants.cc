/**
 * @file
 * Figure 7 equivalent: IPC of L-ELF and the restricted U-ELF variants
 * (RET/IND/COND-ELF) relative to the DCF baseline.
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
        "Figure 7 — L/RET/IND/COND-ELF IPC relative to DCF",
        "COND-ELF generally wins; RET-ELF shines on recursion "
        "(srv2.subtest_2); COND-ELF can lose on bimodal-hostile "
        "patterns (620.omnetpp)");

    const SweepSpec spec = bench::finalizeSpec(
        bench::fig7Spec(opt.runOptions()), opt, argv[0]);
    const ExpandedSweep ex = expandSweep(spec);

    SweepRunner runner(bench::specJobs(opt, spec));
    runner.setBaseSeed(spec.baseSeed);
    const std::vector<RunResult> res = runner.run(ex.jobs);

    if (!opt.specPath.empty()) {
        bench::printResultsTable(res, ex.labels);
    } else {
        std::printf("%-18s %8s %8s %8s %8s %8s\n", "workload",
                    "DCF IPC", "L-ELF", "RET", "IND", "COND");
        for (std::size_t i = 0; i + 4 < res.size(); i += 5) {
            const RunResult &dcf = res[i];
            std::printf("%-18s %8.3f %8.3f %8.3f %8.3f %8.3f\n",
                        dcf.workload.c_str(), dcf.ipc,
                        res[i + 1].ipc / dcf.ipc,
                        res[i + 2].ipc / dcf.ipc,
                        res[i + 3].ipc / dcf.ipc,
                        res[i + 4].ipc / dcf.ipc);
            std::fflush(stdout);
        }
    }
    bench::exportResults(opt, runner);
    bench::printSweepTiming(runner);
    return bench::exitCode(runner);
}
