/**
 * @file
 * Shared plumbing for the experiment harnesses: option parsing, table
 * formatting, and machine-readable export. Each bench binary
 * regenerates one table or figure of the paper; rows print as aligned
 * text so paper-vs-measured comparison (EXPERIMENTS.md) is a
 * copy-paste, and `--json` / `--csv` export the same results
 * losslessly for scripts (see sim/export.hh for the schema).
 */

#ifndef ELFSIM_BENCH_BENCH_UTIL_HH
#define ELFSIM_BENCH_BENCH_UTIL_HH

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hh"

#include "sim/export.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "sim/sweep_spec.hh"
#include "workload/catalog.hh"
#include "workload/checkpoint_store.hh"

namespace elfsim {
namespace bench {

/** Common command-line options. */
struct Options
{
    InstCount warmupInsts = 100000;
    InstCount measureInsts = 200000;
    bool quick = false;
    unsigned jobs = 0; ///< sweep threads; 0 = $ELFSIM_JOBS / hardware
    InstCount intervalInsts = 0; ///< timeline sampling period; 0 = off
    std::string jsonPath;        ///< --json target; empty = off
    std::string csvPath;         ///< --csv target; empty = off

    std::string traceCacheDir;   ///< --trace-cache artifact directory
    bool noTrace = false;        ///< --no-trace: lazy reference path

    // Sampled execution (sim/runner.hh RunOptions sampling fields).
    InstCount samplePeriodInsts = 0; ///< --sample-period; 0 = full run
    InstCount sampleLengthInsts = 0; ///< --sample-length per period
    InstCount sampleWarmupInsts = 0; ///< --sample-warmup per period
    std::string ckptCacheDir;    ///< --ckpt-cache artifact directory
    bool noCkpt = false;         ///< --no-ckpt: always fast-forward

    std::string specPath;     ///< --spec: run this grid instead
    std::string dumpSpecPath; ///< --dump-spec: archive the grid as JSON

    RunOptions
    runOptions() const
    {
        RunOptions o;
        o.warmupInsts = quick ? warmupInsts / 4 : warmupInsts;
        o.measureInsts = quick ? measureInsts / 4 : measureInsts;
        o.intervalInsts = intervalInsts;
        o.samplePeriodInsts = samplePeriodInsts;
        o.sampleLengthInsts = sampleLengthInsts;
        o.sampleWarmupInsts = sampleWarmupInsts;
        return o;
    }
};

/**
 * A bench-specific flag handled inside the common option loop, so it
 * shares the uniform `--help` text and unknown-flag exit-2 semantics
 * (bench_throughput's --stride/--sampled).
 */
struct LocalFlag
{
    const char *name;  ///< "--stride"
    bool takesValue = false;
    const char *help;  ///< preformatted usage line(s), '\n'-terminated
    /** Called with the flag's value (null when takesValue is false). */
    std::function<void(const char *value)> apply;
};

/** Print --help text for the common options (+ any bench locals). */
inline void
printUsage(const char *argv0, std::FILE *to,
           const std::vector<LocalFlag> &locals = {})
{
    std::fprintf(
        to,
        "usage: %s [options]\n"
        "  --warmup N      warmup instructions per run (default %llu)\n"
        "  --insts N       measured instructions per run (default "
        "%llu)\n"
        "  --quick         quarter-size windows (smoke run)\n"
        "  --jobs N        sweep threads (default: $ELFSIM_JOBS, then "
        "hardware)\n"
        "  --interval N    capture a timeline sample every N committed "
        "insts (0 = off)\n"
        "  --json PATH     write results + sweep timing as JSON "
        "(elfsim-results-v2)\n"
        "  --csv PATH      write results as CSV (timelines go to "
        "*.timeline.csv)\n"
        "  --trace-cache D persist compiled workload traces as "
        "content-keyed files in D\n"
        "                  (also $ELFSIM_TRACE_CACHE); campaigns "
        "share one compile\n"
        "  --no-trace      disable trace compilation (lazy "
        "per-instruction generation;\n"
        "                  also $ELFSIM_TRACE=0) — behaviour-"
        "identical, just slower\n"
        "  --sample-period N  sampled execution: partition the total "
        "budget into\n"
        "                  periods of N insts, fast-forwarding "
        "(functional warming)\n"
        "                  between detailed windows (0 = full "
        "detailed run)\n"
        "  --sample-length N  measured detailed insts per period "
        "(required with\n"
        "                  --sample-period; length + warmup must fit "
        "the period)\n"
        "  --sample-warmup N  detailed-but-unmeasured insts before "
        "each measured\n"
        "                  window (drains the post-fast-forward "
        "transient)\n"
        "  --ckpt-cache D  persist warm-state checkpoints as content-"
        "keyed files in D\n"
        "                  (also $ELFSIM_CKPT_CACHE); sampled re-runs "
        "skip fast-forward\n"
        "  --no-ckpt       disable checkpoint artifacts (also "
        "$ELFSIM_CKPT=0) —\n"
        "                  behaviour-identical, just always fast-"
        "forwards\n"
        "  --spec PATH     run the elfsim-sweepspec-v1 grid in PATH "
        "instead of this\n"
        "                  bench's native grid (output becomes a "
        "generic table)\n"
        "  --dump-spec PATH  write the resolved grid as an elfsim-"
        "sweepspec-v1 JSON\n"
        "                  document (re-runnable via --spec), then "
        "run\n",
        argv0, (unsigned long long)Options().warmupInsts,
        (unsigned long long)Options().measureInsts);
    for (const LocalFlag &f : locals)
        std::fputs(f.help, to);
    std::fprintf(
        to,
        "  --help          this text\n"
        "exit status: 0 ok, 1 export I/O error, 2 usage error, "
        "3 failed cells\n");
}

/**
 * Strict numeric parse of a flag value: the whole string must be a
 * base-10 non-negative integer that fits the type — a leading sign,
 * trailing junk ("100k"), or overflow is a hard usage error (exit 2)
 * with a one-line message, never a silently truncated value.
 */
inline std::uint64_t
parseCount(const char *argv0, const char *flag, const char *text,
           std::uint64_t max = UINT64_MAX)
{
    const auto die = [&](const char *why) {
        std::fprintf(stderr,
                     "%s: %s expects a non-negative integer "
                     "(%s in '%s')\n",
                     argv0, flag, why, text);
        std::exit(2);
    };
    if (!*text || !std::isdigit(static_cast<unsigned char>(*text)))
        die(*text == '-' ? "negative value" : "not a number");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno == ERANGE || v > max)
        die("value out of range");
    if (*end != '\0')
        die("trailing junk");
    return v;
}

/**
 * Parse the common options, starting from @a defaults (benches with
 * non-standard windows seed their own). Unknown flags, missing values
 * and malformed numbers are hard errors (exit 2); `--help` prints
 * usage and exits 0. @a locals lets a bench add flags that share
 * these semantics.
 */
inline Options
parseOptions(int argc, char **argv, Options defaults = {},
             const std::vector<LocalFlag> &locals = {})
{
    Options o = defaults;
    const auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: option '%s' needs a value\n",
                         argv[0], argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--warmup"))
            o.warmupInsts = parseCount(argv[0], "--warmup", value(i));
        else if (!std::strcmp(argv[i], "--insts"))
            o.measureInsts = parseCount(argv[0], "--insts", value(i));
        else if (!std::strcmp(argv[i], "--quick"))
            o.quick = true;
        else if (!std::strcmp(argv[i], "--jobs"))
            o.jobs = unsigned(
                parseCount(argv[0], "--jobs", value(i), UINT_MAX));
        else if (!std::strcmp(argv[i], "--interval"))
            o.intervalInsts =
                parseCount(argv[0], "--interval", value(i));
        else if (!std::strcmp(argv[i], "--json"))
            o.jsonPath = value(i);
        else if (!std::strcmp(argv[i], "--csv"))
            o.csvPath = value(i);
        else if (!std::strcmp(argv[i], "--trace-cache"))
            o.traceCacheDir = value(i);
        else if (!std::strcmp(argv[i], "--no-trace"))
            o.noTrace = true;
        else if (!std::strcmp(argv[i], "--sample-period"))
            o.samplePeriodInsts =
                parseCount(argv[0], "--sample-period", value(i));
        else if (!std::strcmp(argv[i], "--sample-length"))
            o.sampleLengthInsts =
                parseCount(argv[0], "--sample-length", value(i));
        else if (!std::strcmp(argv[i], "--sample-warmup"))
            o.sampleWarmupInsts =
                parseCount(argv[0], "--sample-warmup", value(i));
        else if (!std::strcmp(argv[i], "--ckpt-cache"))
            o.ckptCacheDir = value(i);
        else if (!std::strcmp(argv[i], "--no-ckpt"))
            o.noCkpt = true;
        else if (!std::strcmp(argv[i], "--spec"))
            o.specPath = value(i);
        else if (!std::strcmp(argv[i], "--dump-spec"))
            o.dumpSpecPath = value(i);
        else if (!std::strcmp(argv[i], "--help") ||
                   !std::strcmp(argv[i], "-h")) {
            printUsage(argv[0], stdout, locals);
            std::exit(0);
        } else {
            const LocalFlag *local = nullptr;
            for (const LocalFlag &f : locals)
                if (!std::strcmp(argv[i], f.name))
                    local = &f;
            if (!local) {
                std::fprintf(stderr, "%s: unknown option '%s'\n",
                             argv[0], argv[i]);
                printUsage(argv[0], stderr, locals);
                std::exit(2);
            }
            local->apply(local->takesValue ? value(i) : nullptr);
        }
    }
    // A contradictory sampling schedule is a usage error, caught here
    // with a precise message rather than deep in the runner.
    try {
        validateRunOptions(o.runOptions());
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        std::exit(2);
    }
    // Configure the process-wide trace cache here so every bench gets
    // the behaviour without per-harness plumbing.
    if (o.noTrace)
        TraceCache::instance().setEnabled(false);
    if (!o.traceCacheDir.empty())
        TraceCache::instance().setDirectory(o.traceCacheDir);
    if (o.noCkpt)
        CheckpointStore::instance().setEnabled(false);
    if (!o.ckptCacheDir.empty())
        CheckpointStore::instance().setDirectory(o.ckptCacheDir);
    return o;
}

/**
 * Resolve the sweep a bench will actually run: its native spec (the
 * bench_specs.hh builder output), unless `--spec PATH` replaces the
 * whole description (grid and windows; only execution-side flags like
 * --jobs / --json / --csv / the cache directories still apply).
 * `--dump-spec` then archives whatever was resolved, so the JSON
 * always matches the grid this process is about to run. Load/save
 * problems and invalid specs are usage errors (exit 2) / export
 * errors (exit 1).
 */
inline SweepSpec
finalizeSpec(SweepSpec native, const Options &o, const char *argv0)
{
    SweepSpec spec = std::move(native);
    if (!o.specPath.empty()) {
        try {
            spec = loadSweepSpec(o.specPath);
            validateSweepSpec(spec);
        } catch (const SimError &e) {
            std::fprintf(stderr, "%s: --spec %s: %s\n", argv0,
                         o.specPath.c_str(), e.what());
            std::exit(2);
        }
    }
    if (!o.dumpSpecPath.empty()) {
        try {
            saveSweepSpec(o.dumpSpecPath, spec);
            std::printf("wrote %s\n", o.dumpSpecPath.c_str());
        } catch (const IoError &e) {
            std::fprintf(stderr, "%s: --dump-spec: %s\n", argv0,
                         e.what());
            std::exit(1);
        }
    }
    return spec;
}

/** Thread count for a resolved spec: the CLI flag wins, then the
 *  spec's own jobs field, then auto. */
inline unsigned
specJobs(const Options &o, const SweepSpec &spec)
{
    return o.jobs ? o.jobs : spec.jobs;
}

/**
 * Generic results table for a grid the bench does not know the shape
 * of (an externally supplied --spec): one row per cell, labelled with
 * the config row's label when the spec carries one.
 */
inline void
printResultsTable(const std::vector<RunResult> &res,
                  const std::vector<std::string> &labels)
{
    std::printf("%-18s %-10s %-30s %8s %12s %10s\n", "workload",
                "variant", "label", "IPC", "branch MPKI", "status");
    for (std::size_t i = 0; i < res.size(); ++i) {
        const RunResult &r = res[i];
        const char *label =
            i < labels.size() ? labels[i].c_str() : "";
        std::printf("%-18s %-10s %-30.30s %8.3f %12.1f %10s\n",
                    r.workload.c_str(), r.variant.c_str(), label,
                    r.ipc, r.branchMpki, jobStatusName(r.status));
    }
    std::fflush(stdout);
}

/** Write the last sweep wherever --json / --csv asked; an unwritable
 *  path is a hard error (exit 1). */
inline void
exportResults(const Options &o, const SweepRunner &runner)
{
    try {
        if (!o.jsonPath.empty()) {
            runner.writeJson(o.jsonPath);
            std::printf("wrote %s\n", o.jsonPath.c_str());
        }
        if (!o.csvPath.empty()) {
            runner.writeCsv(o.csvPath);
            std::printf("wrote %s\n", o.csvPath.c_str());
        }
    } catch (const IoError &e) {
        std::fprintf(stderr, "export failed: %s\n", e.what());
        std::exit(1);
    }
}

/**
 * Process exit status for a finished sweep: 3 when any cell failed
 * (each one listed on stderr), 0 otherwise — so scripts can
 * distinguish "figure is complete" from "figure has holes" without
 * parsing the JSON.
 */
inline int
exitCode(const SweepRunner &runner)
{
    std::size_t bad = 0;
    for (const RunResult &r : runner.results()) {
        if (r.ok())
            continue;
        ++bad;
        std::fprintf(stderr, "cell %s/%s %s: %s\n", r.workload.c_str(),
                     r.variant.c_str(), jobStatusName(r.status),
                     r.error.c_str());
    }
    if (bad) {
        std::fprintf(stderr, "%zu of %zu cells did not complete ok\n",
                     bad, runner.results().size());
        return 3;
    }
    return 0;
}

/** For benches with no sweep results: warn if export was requested. */
inline void
warnNoExport(const Options &o, const char *why)
{
    if (!o.jsonPath.empty() || !o.csvPath.empty())
        std::fprintf(stderr,
                     "note: --json/--csv ignored here (%s)\n", why);
    if (!o.specPath.empty() || !o.dumpSpecPath.empty())
        std::fprintf(stderr,
                     "note: --spec/--dump-spec ignored here (%s)\n",
                     why);
}

/** Print the runner's per-sweep timing summary to stdout. */
inline void
printSweepTiming(const SweepRunner &runner)
{
    std::ostringstream os;
    runner.printTimingSummary(os);
    std::printf("\n%s", os.str().c_str());
    std::fflush(stdout);
}

/** Print the experiment banner. */
inline void
banner(const char *experiment, const char *caption)
{
    std::printf("==================================================="
                "=========================\n");
    std::printf("%s\n  %s\n", experiment, caption);
    std::printf("==================================================="
                "=========================\n");
}

} // namespace bench
} // namespace elfsim

#endif // ELFSIM_BENCH_BENCH_UTIL_HH
