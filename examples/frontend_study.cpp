/**
 * @file
 * Front-end design study: given a workload, compare every front-end
 * organization this library models — the coupled baseline (NoDCF),
 * the decoupled baseline (DCF), and the five ELF variants — the way
 * an architect would when sizing a new core's fetch unit.
 *
 *   $ ./frontend_study [workload-name]
 *
 * Workload names come from the Table I catalog (bench_table1_workloads
 * lists them); the default is the high-MPKI MCTS proxy.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "sim/report.hh"
#include "sim/runner.hh"
#include "workload/catalog.hh"

using namespace elfsim;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "641.leela";
    const WorkloadSpec *spec = findWorkload(name);
    if (!spec) {
        std::fprintf(stderr,
                     "unknown workload '%s' (see "
                     "bench_table1_workloads for the catalog)\n",
                     name.c_str());
        return 1;
    }

    Program program = buildWorkload(*spec);
    std::printf("workload: %-16s  %s\n", spec->name.c_str(),
                spec->notes.c_str());
    std::printf("code %lluKB, data %lluKB\n\n",
                (unsigned long long)(program.footprintBytes() / 1024),
                (unsigned long long)(spec->params.dataFootprint /
                                     1024));

    RunOptions opts;
    opts.warmupInsts = 100000;
    opts.measureInsts = 200000;

    // Normalize to the DCF baseline (run it first).
    const RunResult dcf =
        runVariant(program, FrontendVariant::Dcf, opts);

    const FrontendVariant variants[] = {
        FrontendVariant::NoDcf,  FrontendVariant::Dcf,
        FrontendVariant::LElf,   FrontendVariant::RetElf,
        FrontendVariant::IndElf, FrontendVariant::CondElf,
        FrontendVariant::UElf,
    };

    std::printf("%-9s %8s %8s %7s %9s %9s %8s\n", "frontend", "IPC",
                "vs DCF", "MPKI", "flushes", "cpl/per", "diverg.");

    for (FrontendVariant v : variants) {
        const RunResult r =
            v == FrontendVariant::Dcf ? dcf
                                      : runVariant(program, v, opts);
        std::printf("%-9s %8.3f %8.3f %7.1f %9llu %9.1f %8llu\n",
                    r.variant.c_str(), r.ipc, r.ipc / dcf.ipc,
                    r.branchMpki,
                    (unsigned long long)r.execFlushes,
                    r.avgCoupledInsts,
                    (unsigned long long)r.divergenceFlushes);
        std::fflush(stdout);
    }

    std::printf("\nreading guide: DCF beats NoDCF when taken-branch "
                "bubbles/prefetch dominate;\nELF beats DCF when "
                "flushes are frequent (high MPKI) — coupled mode "
                "hides the\nBP1/BP2/FAQ restart latency.\n");

    // Deep dive: the full component report for a U-ELF run.
    std::printf("\n");
    {
        SimConfig cfg = makeConfig(FrontendVariant::UElf);
        Core core(cfg, program);
        core.run(opts.warmupInsts + opts.measureInsts);
        printReport(std::cout, core);
    }
    return 0;
}
