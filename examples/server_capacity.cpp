/**
 * @file
 * Server capacity study — the paper's motivating scenario: a
 * transaction-server-like workload whose instruction footprint grows
 * beyond the L1I and BTB reach. As it grows, the decoupled fetcher's
 * FAQ-directed prefetch becomes the dominant benefit (the paper's
 * "server 1 improves 40% with DCF"), while BTB misses expose the
 * decode-resteer feedback loop that ELF's coupled mode shortens.
 *
 * The (footprint × variant) grid is a SweepSpec
 * (bench_specs.hh::serverCapacitySpec); the common bench options
 * apply (--jobs N, --json PATH, --csv PATH, --spec, --dump-spec,
 * --quick, --help).
 *
 *   $ ./server_capacity [--jobs N] [--json results.json]
 */

#include <cstdio>
#include <vector>

#include "bench_specs.hh"
#include "bench_util.hh"

using namespace elfsim;

int
main(int argc, char **argv)
{
    bench::Options defaults;
    defaults.warmupInsts = 150000;
    defaults.measureInsts = 150000;
    const bench::Options opt = bench::parseOptions(argc, argv, defaults);

    const SweepSpec spec = bench::finalizeSpec(
        bench::serverCapacitySpec(opt.runOptions()), opt, argv[0]);

    std::printf("Instruction-footprint sweep (server-1 shape)\n");

    const ExpandedSweep ex = expandSweep(spec);
    SweepRunner runner(bench::specJobs(opt, spec));
    runner.setBaseSeed(spec.baseSeed);
    const std::vector<RunResult> res = runner.run(ex.jobs);

    if (!opt.specPath.empty()) {
        bench::printResultsTable(res, ex.labels);
        bench::exportResults(opt, runner);
        return bench::exitCode(runner);
    }

    std::printf("%-10s %9s | %7s %7s %7s | %8s %8s\n", "code KB",
                "DCF IPC", "NoDCF", "L-ELF", "U-ELF", "BTB L0",
                "dec.rst");
    for (std::size_t i = 0; i < ex.programs.size(); ++i) {
        const RunResult &dcf = res[4 * i + 0];
        const RunResult &nod = res[4 * i + 1];
        const RunResult &l = res[4 * i + 2];
        const RunResult &u = res[4 * i + 3];
        std::printf("%-10llu %9.3f | %7.3f %7.3f %7.3f | %7.0f%% "
                    "%8llu\n",
                    (unsigned long long)(ex.programs[i]
                                             .footprintBytes() /
                                         1024),
                    dcf.ipc, nod.ipc / dcf.ipc, l.ipc / dcf.ipc,
                    u.ipc / dcf.ipc, 100 * dcf.btbHitL0,
                    (unsigned long long)dcf.decodeResteers);
        std::fflush(stdout);
    }

    std::printf("\nAs the footprint grows: the BTB L0 hit rate falls, "
                "decode resteers (the BTB-miss\nfeedback loop) rise, "
                "and NoDCF collapses because it has no FAQ-directed "
                "prefetch.\n");
    bench::exportResults(opt, runner);
    return bench::exitCode(runner);
}
