/**
 * @file
 * Figure 9 equivalent: geometric-mean speedup of NoDCF, L-ELF and
 * U-ELF relative to DCF, per benchmark suite and overall.
 */

#include <map>
#include <vector>

#include "bench_specs.hh"
#include "bench_util.hh"

using namespace elfsim;

int
main(int argc, char **argv)
{
    const bench::Options opt = bench::parseOptions(argc, argv);
    bench::banner(
        "Figure 9 — Speedup (geomean) of NoDCF / L-ELF / U-ELF "
        "relative to DCF",
        "Per suite and overall; paper: L-ELF +0.7% geomean, U-ELF "
        "+1.2%, NoDCF well below 1.0");

    const SweepSpec spec = bench::finalizeSpec(
        bench::fig9Spec(opt.runOptions()), opt, argv[0]);
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

    std::map<std::string, std::vector<double>> nod, lelf, uelf;
    std::vector<double> nodAll, lAll, uAll;

    std::size_t row = 0;
    for (const WorkloadSpec &w : workloadCatalog()) {
        const RunResult &dcf = res[row + 0];
        const RunResult &n = res[row + 1];
        const RunResult &l = res[row + 2];
        const RunResult &u = res[row + 3];
        row += 4;
        if (!dcf.ok() || !n.ok() || !l.ok() || !u.ok()) {
            // A failed cell has no IPC; keep it out of the geomeans
            // rather than poisoning the whole figure.
            std::printf("  %-18s (skipped: cell did not complete)\n",
                        w.name.c_str());
            continue;
        }
        const double rn = n.ipc / dcf.ipc;
        const double rl = l.ipc / dcf.ipc;
        const double ru = u.ipc / dcf.ipc;
        nod[w.suite].push_back(rn);
        lelf[w.suite].push_back(rl);
        uelf[w.suite].push_back(ru);
        nodAll.push_back(rn);
        lAll.push_back(rl);
        uAll.push_back(ru);
        std::printf("  %-18s NoDCF %.3f  L-ELF %.3f  U-ELF %.3f\n",
                    w.name.c_str(), rn, rl, ru);
        std::fflush(stdout);
    }

    std::printf("\n%-12s %8s %8s %8s\n", "suite", "NoDCF", "L-ELF",
                "U-ELF");
    for (const std::string &s : catalogSuites()) {
        std::printf("%-12s %8.3f %8.3f %8.3f\n", s.c_str(),
                    geomean(nod[s]), geomean(lelf[s]),
                    geomean(uelf[s]));
    }
    std::printf("%-12s %8.3f %8.3f %8.3f\n", "Geomean",
                geomean(nodAll), geomean(lAll), geomean(uAll));
    bench::exportResults(opt, runner);
    bench::printSweepTiming(runner);
    return bench::exitCode(runner);
}
