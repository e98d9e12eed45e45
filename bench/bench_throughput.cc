/**
 * @file
 * Simulator-throughput benchmark: how fast the simulator itself runs,
 * not what it predicts. Sweeps the Table I workload catalog across the
 * NoDCF / DCF / U-ELF kernels (coupled-only, decoupled-only, and the
 * full elastic machinery — the three distinct hot paths) and reports
 * per-job wall-clock, simulated MIPS, and simulated cycles per host
 * microsecond, plus the geomean MIPS that the perf regression gate
 * (scripts/check_results.py --throughput) compares against the
 * committed baseline.
 *
 * Run from the repo root so the default --json target lands at
 * ./BENCH_throughput.json (what the checker and docs expect); compare
 * like with like: Release build, default flags, --jobs 1.
 */

#include <fstream>
#include <vector>

#include "bench_specs.hh"
#include "bench_util.hh"

using namespace elfsim;

int
main(int argc, char **argv)
{
    bench::Options defaults;
    defaults.warmupInsts = 50000;
    defaults.measureInsts = 150000;
    defaults.jsonPath = "BENCH_throughput.json";

    // --stride N: simulate every Nth catalog workload. Full-size
    // windows on a subset keep per-run MIPS comparable with the
    // committed full-grid baseline (shrinking the windows instead
    // would bias MIPS low: per-run setup stops being amortized). The
    // regression checker matches rows by (workload, variant), so a
    // strided document compares cleanly. scripts/perf_smoke.sh uses
    // this for its ~15 s gate.
    //
    // --sampled: append U-ELF sampled-mode rows for the slowest
    // catalog workloads over a 10M-instruction stream (period 1M /
    // length 5000 / warmup 1000). Their rows carry the "/sampled"
    // variant suffix and report *effective* MIPS — whole stream
    // covered per host second — which is what the >=50x sampled gate
    // in scripts/perf_smoke.sh compares against the same workload's
    // detailed row.
    unsigned stride = 1;
    bool sampled = false;
    const std::vector<bench::LocalFlag> locals = {
        {"--stride", true,
         "  --stride N      simulate every Nth catalog workload "
         "(perf_smoke subset)\n",
         [&](const char *v) {
             const std::uint64_t n =
                 bench::parseCount(argv[0], "--stride", v, UINT_MAX);
             stride = n > 1 ? unsigned(n) : 1;
         }},
        {"--sampled", false,
         "  --sampled       append sampled-mode rows for the slowest "
         "workloads\n",
         [&](const char *) { sampled = true; }},
    };
    const bench::Options opt =
        bench::parseOptions(argc, argv, defaults, locals);
    bench::banner(
        "Simulator throughput — wall-clock cost of the tick kernel",
        "Table I workloads x {NoDCF, DCF, U-ELF}; per-job simulated "
        "MIPS and cycles per host microsecond");

    const SweepSpec spec = bench::finalizeSpec(
        bench::throughputSpec(opt.runOptions(), stride, sampled,
                              opt.quick),
        opt, argv[0]);
    const ExpandedSweep ex = expandSweep(spec);

    SweepRunner runner(bench::specJobs(opt, spec));
    runner.setBaseSeed(spec.baseSeed);
    std::vector<RunResult> res = runner.run(ex.jobs);
    // Sampled rows get their own (workload, variant) identity so the
    // regression checker never compares effective MIPS against a
    // detailed row of the same cell.
    for (RunResult &r : res)
        if (r.sampled)
            r.variant += "/sampled";
    const std::vector<double> &secs = runner.perJobSeconds();

    std::printf("  %-18s %-13s %9s %10s %14s\n", "workload", "variant",
                "wall s", "sim MIPS", "cycles/host-us");
    std::vector<double> mips;
    mips.reserve(res.size());
    for (std::size_t i = 0; i < res.size(); ++i) {
        const RunResult &r = res[i];
        const double s = secs[i];
        if (!r.ok()) {
            std::printf("  %-18s %-13s (%s: %s)\n", r.workload.c_str(),
                        r.variant.c_str(), jobStatusName(r.status),
                        r.error.c_str());
            continue;
        }
        // Sampled rows: effective throughput over the whole covered
        // stream (matches writeThroughputJson).
        const double insts =
            double(r.sampled ? r.sampling.totalInsts : r.insts);
        const double cycles =
            double(r.sampled ? r.sampling.estTotalCycles : r.cycles);
        const double m = s > 0 ? insts / s / 1e6 : 0;
        if (m > 0)
            mips.push_back(m);
        std::printf("  %-18s %-13s %9.3f %10.3f %14.3f\n",
                    r.workload.c_str(), r.variant.c_str(), s, m,
                    s > 0 ? cycles / s / 1e6 : 0);
    }
    std::printf("\n  geomean %.3f simulated MIPS over %zu runs "
                "(%.1f s wall)\n",
                geomean(mips), res.size(),
                runner.timing().wallSeconds);

    if (!opt.jsonPath.empty()) {
        std::ofstream os(opt.jsonPath);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n",
                         opt.jsonPath.c_str());
            return 1;
        }
        writeThroughputJson(os, res, secs, runner.timing());
        std::printf("wrote %s\n", opt.jsonPath.c_str());
    }
    if (!opt.csvPath.empty()) {
        runner.writeCsv(opt.csvPath);
        std::printf("wrote %s\n", opt.csvPath.c_str());
    }
    bench::printSweepTiming(runner);
    return bench::exitCode(runner);
}
