/**
 * @file
 * End-to-end benchmark program. One invocation runs one benchmark
 * workload (an elfsim-sweepspec-v1 file) in this process and prints
 * its measurements as a single JSON line on stdout; run.py starts one
 * process per workload and aggregates.
 *
 * Untraced mode (default) gives the end-to-end numbers. It times only
 * the user path through the public API:
 *
 *   loadSweepSpec -> expandSweep -> TraceCache::acquire per distinct
 *   (program, budget) -> SweepRunner::run -> SweepRunner::writeJson
 *
 * Traced mode (--spans FILE --expect RESULTS) gives the per-layer
 * split. It replays every cell from outside the runner, calling the
 * same public functions the runner calls (Core::Core, Core::run,
 * squashToCommitted, fastForward, CheckpointStore::load/save,
 * load/saveWarmState, writeResultsJson), and records a span around
 * each call. Sampled cells use runSampled's stratified window offsets
 * and checkpoint keys, so the replica does the same work. Each cell's
 * accumulated counters must equal the untraced run's RunResult (read
 * from RESULTS); a mismatch is a benchmark error. The spans are
 * written as Chrome trace-event JSON, which Perfetto opens offline.
 *
 * Usage:
 *   elfsim_benchmark --spec FILE --results OUT.json [--seed N]
 *                    [--smoke] [--cache-dir DIR]
 *                    [--spans SPANS.json --expect RESULTS.json]
 *
 * --seed sets the spec's base_seed (the per-cell predictor-allocation
 * RNG). --cache-dir enables the on-disk trace and checkpoint caches
 * under DIR; without it traces are memoized in memory only and
 * checkpoints are off. --smoke quarters every instruction budget.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/export.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "common/serialize.hh"
#include "sim/export.hh"
#include "sim/sweep_spec.hh"
#include "workload/checkpoint_store.hh"
#include "workload/trace_cache.hh"

using namespace elfsim;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

struct Args
{
    std::string spec;
    std::string results;
    std::string cacheDir;
    std::string spans;
    std::string expect;
    std::uint64_t seed = 0;
    bool smoke = false;
};

[[noreturn]] void
usage(const char *argv0, const std::string &why)
{
    std::fprintf(stderr,
                 "%s: %s\nusage: %s --spec FILE --results OUT.json "
                 "[--seed N] [--smoke] [--cache-dir DIR] "
                 "[--spans SPANS.json --expect RESULTS.json]\n",
                 argv0, why.c_str(), argv0);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(argv[0], "missing value for " + flag);
        const char *v = argv[++i];
        if (flag == "--spec")
            a.spec = v;
        else if (flag == "--results")
            a.results = v;
        else if (flag == "--cache-dir")
            a.cacheDir = v;
        else if (flag == "--spans")
            a.spans = v;
        else if (flag == "--expect")
            a.expect = v;
        else if (flag == "--seed") {
            char *end = nullptr;
            a.seed = std::strtoull(v, &end, 10);
            if (!*v || *end)
                usage(argv[0], "--seed needs a non-negative integer");
        } else
            usage(argv[0], "unknown flag " + flag);
    }
    if (a.spec.empty() || a.results.empty())
        usage(argv[0], "--spec and --results are required");
    if (a.spans.empty() != a.expect.empty())
        usage(argv[0], "--spans and --expect go together");
    return a;
}

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** --smoke: a quarter of every instruction budget (a sampled stream
 *  keeps its period, so it runs a quarter of the windows). */
void
shrinkForSmoke(RunOptions &o)
{
    o.warmupInsts /= 4;
    o.measureInsts /= 4;
}

SweepSpec
loadSpec(const Args &a)
{
    SweepSpec spec = loadSweepSpec(a.spec);
    spec.baseSeed = a.seed;
    if (a.smoke) {
        shrinkForSmoke(spec.run);
        for (SweepGroup &g : spec.groups)
            if (g.hasRun)
                shrinkForSmoke(g.run);
    }
    return spec;
}

void
configureCaches(const Args &a)
{
    if (a.cacheDir.empty()) {
        CheckpointStore::instance().setEnabled(false);
        return;
    }
    TraceCache::instance().setDirectory(a.cacheDir + "/trace");
    CheckpointStore::instance().setDirectory(a.cacheDir + "/ckpt");
}

/** The trace budget SweepRunner::run pre-acquires for a cell. */
InstCount
traceBudget(const RunOptions &o)
{
    const InstCount all = o.warmupInsts + o.measureInsts;
    return o.sampled() ? std::min(all, maxSampledTraceInsts) : all;
}

/** Stream instructions a finished cell covered: the detailed budget,
 *  or windows x period for a sampled cell. */
double
coveredInsts(const SweepJob &job, const RunResult &r)
{
    if (!r.ok())
        return 0;
    return r.sampled ? double(r.sampling.totalInsts)
                     : double(job.opts.warmupInsts + job.opts.measureInsts);
}

std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t n = 0;
    std::error_code ec;
    if (dir.empty() || !fs::exists(dir, ec))
        return 0;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec))
            n += it->file_size(ec);
    }
    return n;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

constexpr double mib = 1024.0 * 1024.0;

// --- untraced: the end-to-end user path -------------------------------

int
runUntraced(const Args &a)
{
    const std::uint64_t bytesBefore = dirBytes(a.cacheDir);
    const auto t0 = Clock::now();

    const SweepSpec spec = loadSpec(a);
    const ExpandedSweep ex = expandSweep(spec);
    std::set<std::pair<const Program *, InstCount>> acquired;
    for (const SweepJob &j : ex.jobs)
        if (acquired.emplace(j.program, traceBudget(j.opts)).second)
            TraceCache::instance().acquire(*j.program,
                                           traceBudget(j.opts));
    const auto t1 = Clock::now();

    SweepRunner runner(spec.jobs);
    runner.setPolicy(spec.policy);
    runner.setBaseSeed(spec.baseSeed);
    const std::vector<RunResult> res = runner.run(ex.jobs);
    runner.writeJson(a.results);
    const auto t2 = Clock::now();

    if (runner.traceStats().compiles != 0) {
        std::fprintf(stderr,
                     "benchmark error: the runner compiled %llu "
                     "traces the benchmark had already acquired\n",
                     static_cast<unsigned long long>(
                         runner.traceStats().compiles));
        return 1;
    }

    double insts = 0;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < res.size(); ++i) {
        insts += coveredInsts(ex.jobs[i], res[i]);
        if (!res[i].ok()) {
            ++failed;
            std::fprintf(stderr, "cell %zu (%s %s) %s: %s\n", i,
                         res[i].workload.c_str(), res[i].variant.c_str(),
                         jobStatusName(res[i].status),
                         res[i].error.c_str());
        }
    }
    const double wall = seconds(t0, t2);
    const double setup = seconds(t0, t1);
    const std::uint64_t bytesAfter = dirBytes(a.cacheDir);

    JsonWriter w(std::cout, false);
    w.beginObject();
    w.field("cells", std::uint64_t(res.size()));
    w.field("failed", std::uint64_t(failed));
    w.field("wall_s", wall);
    w.field("setup_s", setup);
    w.field("sim_mips", insts / (wall - setup) / 1e6);
    w.key("cell_s").beginArray();
    for (double s : runner.perJobSeconds())
        w.value(s);
    w.endArray();
    w.field("peak_rss_mib", peakRssMib());
    w.field("artifact_mib",
            double(bytesAfter > bytesBefore ? bytesAfter - bytesBefore
                                            : 0) / mib);
    w.endObject();
    std::cout << '\n';
    return 0;
}

// --- traced: the per-layer replica -------------------------------------

/**
 * Every span the traced run records, one per layer boundary, with the
 * metric its self time is reported as. The root ("benchmark") and
 * per-cell ("cell") spans hold the glue between calls, so the self
 * times of all of them sum to the traced wall.
 */
constexpr std::pair<const char *, const char *> layerSpans[] = {
    {"spec.load", "spec.load_s"},
    {"workload.build", "workload.build_s"},
    {"trace.acquire", "trace.acquire_s"},
    {"core.construct", "core.construct_s"},
    {"detailed.run", "detailed.run_s"},
    {"warm.ff", "warm.ff_s"},
    {"quiesce", "quiesce.s"},
    {"ckpt.load", "ckpt.load_s"},
    {"ckpt.restore", "ckpt.restore_s"},
    {"ckpt.serialize", "ckpt.serialize_s"},
    {"ckpt.save", "ckpt.save_s"},
    {"export.write", "export.write_s"},
    {"cell", "cell.glue_s"},
    {"benchmark", "benchmark.glue_s"},
};

/** In-memory span recorder; spans nest through an explicit stack. */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        Clock::time_point start;
        Clock::time_point end;
        int parent;
        int cell;
    };

    Tracer() : origin(Clock::now()) {}

    /** Open a span; @a cell < 0 inherits the parent's cell. */
    int
    begin(const char *name, int cell = -1)
    {
        const int parent = open.empty() ? -1 : open.back();
        if (cell < 0 && parent >= 0)
            cell = spans[parent].cell;
        spans.push_back(Span{name, Clock::now(), {}, parent, cell});
        open.push_back(int(spans.size()) - 1);
        return open.back();
    }

    void
    end(int id)
    {
        spans[id].end = Clock::now();
        open.pop_back();
    }

    /** Run @a f inside a span named @a name; returns what f returns. */
    template <typename F>
    decltype(auto)
    span(const char *name, F &&f)
    {
        struct Closer
        {
            Tracer *t;
            int id;
            ~Closer() { t->end(id); }
        } closer{this, begin(name)};
        return f();
    }

    /** Per-name self time: span duration minus its children's. */
    std::map<std::string, double>
    selfSeconds() const
    {
        std::vector<double> self(spans.size());
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const double d = seconds(spans[i].start, spans[i].end);
            self[i] += d;
            if (spans[i].parent >= 0)
                self[spans[i].parent] -= d;
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans.size(); ++i)
            out[spans[i].name] += self[i];
        return out;
    }

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    void
    writeChromeTrace(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            throw IoError("cannot write span file '" + path + "'");
        JsonWriter w(os, false);
        w.beginObject();
        w.field("displayTimeUnit", "ms");
        w.key("traceEvents").beginArray();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            w.beginObject();
            w.field("name", s.name);
            w.field("cat",
                    std::string_view(s.name, std::strcspn(s.name, ".")));
            w.field("ph", "X");
            w.field("pid", std::uint64_t(1));
            w.field("tid", std::uint64_t(1));
            w.field("ts", seconds(origin, s.start) * 1e6);
            w.field("dur", seconds(s.start, s.end) * 1e6);
            w.key("args").beginObject();
            w.field("id", std::uint64_t(i));
            w.field("parent", double(s.parent)); // -1: the root
            w.field("cell", double(s.cell));     // -1: outside any cell
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << '\n';
    }

  private:
    Clock::time_point origin;
    std::vector<Span> spans;
    std::vector<int> open;
};

/** Raw counters of the modelled structures, read off a core through
 *  its const accessors; measured windows accumulate their deltas. */
enum Ctr
{
    Cycles, Insts, CondMiss, TargetMiss, ExecFlushes, MemOrderFlushes,
    DecodeResteers, DivergenceFlushes, CoupledCommitted, L0iMisses,
    L1dMisses, L2Misses, WrongPathInsts, ElfSwitches, RobFullCycles,
    BtbLookups, BtbHitL0, BtbHitL1, BtbHitL2, NumCtr
};
using Counters = std::array<std::uint64_t, NumCtr>;

Counters
capture(const Core &c)
{
    Counters k{};
    k[Cycles] = c.cycles();
    k[Insts] = c.committed();
    k[CondMiss] = c.backend().stats().condMispredicts;
    k[TargetMiss] = c.backend().stats().targetMispredicts;
    k[ExecFlushes] = c.stats().execFlushes;
    k[MemOrderFlushes] = c.stats().memOrderFlushes;
    k[DecodeResteers] = c.stats().decodeResteers;
    k[DivergenceFlushes] = c.stats().divergenceFlushes;
    k[CoupledCommitted] = c.backend().stats().coupledCommitted;
    k[L0iMisses] = c.memory().l0i().misses();
    k[L1dMisses] = c.memory().l1d().misses();
    k[L2Misses] = c.memory().l2().misses();
    k[WrongPathInsts] = c.supply().wrongPathInsts();
    k[ElfSwitches] = c.elf().stats().switches;
    k[RobFullCycles] = c.backend().stats().robFullCycles;
    k[BtbLookups] = c.btb().lookups();
    k[BtbHitL0] = c.btb().hitsAtLevel(0);
    k[BtbHitL1] = c.btb().hitsAtLevel(1);
    k[BtbHitL2] = c.btb().hitsAtLevel(2);
    return k;
}

void
addDelta(Counters &acc, const Counters &now, const Counters &before)
{
    for (int i = 0; i < NumCtr; ++i)
        acc[i] += now[i] - before[i];
}

/** What one replayed cell did, beyond its measured-window counters. */
struct CellWork
{
    Counters measured{};
    std::uint64_t detailedInsts = 0;  ///< all detailed commits (W too)
    std::uint64_t detailedCycles = 0;
    std::uint64_t ffInsts = 0;
    std::uint64_t ckptHits = 0;
    std::uint64_t ckptMisses = 0;
    std::uint64_t ckptSaves = 0;
    WarmStats warm;
};

/** Core::run inside a "detailed.run" span, counting what it ticked. */
void
runDetailed(Tracer &tr, Core &core, InstCount n, CellWork &cw)
{
    const Cycle c0 = core.cycles();
    const InstCount i0 = core.committed();
    tr.span("detailed.run", [&] { core.run(n); });
    cw.detailedCycles += core.cycles() - c0;
    cw.detailedInsts += core.committed() - i0;
}

/** runSimulation's detailed shape: warmup, then the measured window. */
void
replayDetailed(Tracer &tr, Core &core, const RunOptions &o, CellWork &cw)
{
    runDetailed(tr, core, o.warmupInsts, cw);
    const Counters start = capture(core);
    runDetailed(tr, core, o.measureInsts, cw);
    addDelta(cw.measured, capture(core), start);
}

/**
 * runSampled's shape: per period, quiesce, restore or fast-forward to
 * a stratified-random window start (saving a checkpoint after a
 * fast-forward), then W unmeasured + L measured detailed insts.
 */
void
replaySampled(Tracer &tr, Core &core, const Program &prog,
              const SimConfig &cfg, const RunOptions &o,
              const std::shared_ptr<const CompiledTrace> &trace,
              CellWork &cw)
{
    const InstCount P = o.samplePeriodInsts;
    const InstCount L = o.sampleLengthInsts;
    const InstCount W = o.sampleWarmupInsts;
    const InstCount ffSpan = P - W - L;
    const std::uint64_t windows = (o.warmupInsts + o.measureInsts) / P;
    const std::uint64_t cfgFp = configFingerprint(cfg);
    CheckpointStore &store = CheckpointStore::instance();
    const bool useCkpts = store.usable();
    Rng offsetRng(mix64(P, mix64(L, W)));

    for (std::uint64_t w = 0; w < windows; ++w) {
        const InstCount offset =
            ffSpan ? InstCount(offsetRng.below(ffSpan + 1)) : 0;
        const InstCount start = w * P + offset;
        tr.span("quiesce", [&] { core.squashToCommitted(); });

        const bool ckptHere = useCkpts && start > 0 && ffSpan > 0;
        bool restored = false;
        std::uint64_t key = 0;
        if (ckptHere) {
            key = CheckpointStore::key(prog, cfgFp, P, L, W, start);
            std::vector<std::uint8_t> payload;
            if (tr.span("ckpt.load", [&] {
                    return store.load(prog.name(), key, start, payload);
                })) {
                restored = tr.span("ckpt.restore", [&] {
                    Deserializer d(payload);
                    const bool hasGen = d.boolean();
                    OracleGen gen;
                    if (hasGen)
                        gen.loadState(d);
                    if (!hasGen && !(trace && start <= trace->size()))
                        return false;
                    core.loadWarmState(d, start, hasGen ? &gen : nullptr);
                    return true;
                });
            }
        }
        if (restored) {
            ++cw.ckptHits;
        } else {
            if (ckptHere)
                ++cw.ckptMisses;
            if (start > core.consumedInsts()) {
                const InstCount n = start - core.consumedInsts();
                cw.ffInsts += n;
                tr.span("warm.ff", [&] { core.fastForward(n); });
            }
            if (ckptHere) {
                Serializer s;
                tr.span("ckpt.serialize", [&] {
                    const bool hasGen =
                        core.ffResumeStateValid() &&
                        !(trace && start <= trace->size());
                    s.boolean(hasGen);
                    if (hasGen)
                        core.ffResumeState().saveState(s);
                    core.saveWarmState(s);
                });
                tr.span("ckpt.save", [&] {
                    store.save(prog.name(), key, start, s.data());
                });
                ++cw.ckptSaves;
            }
        }

        runDetailed(tr, core, W, cw);
        const Counters before = capture(core);
        runDetailed(tr, core, L, cw);
        addDelta(cw.measured, capture(core), before);
    }
}

std::vector<RunResult>
loadExpected(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw IoError("cannot read expected results '" + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    const json::Value doc = json::parse(ss.str());
    const json::Value &rows = doc.at("results");
    std::vector<RunResult> out;
    for (std::size_t i = 0; i < rows.size(); ++i)
        out.push_back(runResultFromJson(rows[i]));
    return out;
}

/** Compare a replayed cell against the untraced run's RunResult;
 *  prints each differing field and returns the number that differ. */
unsigned
crossCheck(std::size_t i, const RunResult &want, const CellWork &cw,
           bool sampled)
{
    std::vector<std::pair<const char *, std::pair<std::uint64_t,
                                                  std::uint64_t>>>
        fields = {
            {"cycles", {want.cycles, cw.measured[Cycles]}},
            {"insts", {want.insts, cw.measured[Insts]}},
            {"exec_flushes", {want.execFlushes, cw.measured[ExecFlushes]}},
            {"mem_order_flushes",
             {want.memOrderFlushes, cw.measured[MemOrderFlushes]}},
            {"decode_resteers",
             {want.decodeResteers, cw.measured[DecodeResteers]}},
            {"divergence_flushes",
             {want.divergenceFlushes, cw.measured[DivergenceFlushes]}},
        };
    if (sampled) {
        fields.push_back(
            {"ckpt_hits", {want.sampling.ckptHits, cw.ckptHits}});
        fields.push_back(
            {"ckpt_misses", {want.sampling.ckptMisses, cw.ckptMisses}});
        fields.push_back(
            {"ckpt_saves", {want.sampling.ckptSaves, cw.ckptSaves}});
    }
    unsigned bad = 0;
    for (const auto &[name, v] : fields) {
        if (v.first == v.second)
            continue;
        ++bad;
        std::fprintf(stderr,
                     "replica mismatch: cell %zu (%s %s) %s: untraced "
                     "%llu, replica %llu\n",
                     i, want.workload.c_str(), want.variant.c_str(), name,
                     static_cast<unsigned long long>(v.first),
                     static_cast<unsigned long long>(v.second));
    }
    return bad;
}

/** The replica's own result row: the counters it measured. */
RunResult
replicaResult(const SweepJob &job, const CellWork &cw)
{
    RunResult r;
    r.workload = job.program->name();
    r.variant = variantName(job.cfg.variant);
    r.cycles = cw.measured[Cycles];
    r.insts = cw.measured[Insts];
    r.ipc = r.cycles ? double(r.insts) / double(r.cycles) : 0.0;
    r.execFlushes = cw.measured[ExecFlushes];
    r.memOrderFlushes = cw.measured[MemOrderFlushes];
    r.decodeResteers = cw.measured[DecodeResteers];
    r.divergenceFlushes = cw.measured[DivergenceFlushes];
    if (job.opts.sampled()) {
        r.sampled = true;
        r.sampling.ckptHits = cw.ckptHits;
        r.sampling.ckptMisses = cw.ckptMisses;
        r.sampling.ckptSaves = cw.ckptSaves;
        r.sampling.warmKernelInsts = cw.warm.kernelInsts;
        r.sampling.warmScalarInsts = cw.warm.scalarInsts;
        r.sampling.warmFfInsts = cw.ffInsts;
    }
    return r;
}

double
ratio(double num, double den, double scale = 1.0)
{
    return den > 0 ? num / den * scale : 0.0;
}

int
runTraced(const Args &a)
{
    const std::vector<RunResult> expected = loadExpected(a.expect);
    const std::uint64_t bytesBefore = dirBytes(a.cacheDir);
    const TraceStats trace0 = TraceCache::instance().stats();
    const CkptStats ckpt0 = CheckpointStore::instance().stats();

    Tracer tr;
    const auto t0 = Clock::now();
    const int root = tr.begin("benchmark");

    const SweepSpec spec =
        tr.span("spec.load", [&] { return loadSpec(a); });
    const ExpandedSweep ex =
        tr.span("workload.build", [&] { return expandSweep(spec); });
    if (expected.size() != ex.jobs.size()) {
        std::fprintf(stderr,
                     "benchmark error: %zu expected results for %zu "
                     "cells\n",
                     expected.size(), ex.jobs.size());
        return 1;
    }

    std::map<std::pair<const Program *, InstCount>,
             std::shared_ptr<const CompiledTrace>>
        traces;
    for (const SweepJob &j : ex.jobs) {
        const auto k = std::make_pair(j.program, traceBudget(j.opts));
        if (!traces.count(k))
            traces[k] = tr.span("trace.acquire", [&] {
                return TraceCache::instance().acquire(*j.program,
                                                      k.second);
            });
    }

    std::vector<RunResult> replica;
    CellWork total;
    unsigned mismatches = 0;
    for (std::size_t i = 0; i < ex.jobs.size(); ++i) {
        const SweepJob &job = ex.jobs[i];
        SimConfig cfg = job.cfg;
        if (spec.baseSeed)
            cfg.rngSeed = mix64(spec.baseSeed, i + 1);
        const auto &trace =
            traces.at({job.program, traceBudget(job.opts)});

        CellWork cw;
        const int cell = tr.begin("cell", int(i));
        {
            std::optional<Core> core;
            tr.span("core.construct",
                    [&] { core.emplace(cfg, *job.program, trace); });
            if (job.opts.sampled())
                replaySampled(tr, *core, *job.program, cfg, job.opts,
                              trace, cw);
            else
                replayDetailed(tr, *core, job.opts, cw);
            cw.warm = core->warmStats();
        }
        tr.end(cell);

        mismatches += crossCheck(i, expected[i], cw, job.opts.sampled());
        replica.push_back(replicaResult(job, cw));
        addDelta(total.measured, cw.measured, Counters{});
        total.detailedInsts += cw.detailedInsts;
        total.detailedCycles += cw.detailedCycles;
        total.ffInsts += cw.ffInsts;
        total.warm.add(cw.warm);
    }

    tr.span("export.write", [&] {
        std::ofstream os(a.results);
        if (!os)
            throw IoError("cannot write '" + a.results + "'");
        writeResultsJson(os, replica);
    });
    tr.end(root);
    const double wall = seconds(t0, Clock::now());
    tr.writeChromeTrace(a.spans);

    const TraceStats ts = TraceCache::instance().stats().delta(trace0);
    const CkptStats cs = CheckpointStore::instance().stats().delta(ckpt0);
    const std::map<std::string, double> self = tr.selfSeconds();
    const auto selfOf = [&](const std::string &n) {
        const auto it = self.find(n);
        return it == self.end() ? 0.0 : it->second;
    };
    const Counters &m = total.measured;
    const double kilo = double(m[Insts]) / 1000.0;
    const auto btbHit = [&](int upTo) {
        std::uint64_t hits = 0;
        for (int l = 0; l <= upTo; ++l)
            hits += m[BtbHitL0 + l];
        return ratio(double(hits), double(m[BtbLookups]));
    };
    const std::uint64_t warmInsts =
        total.warm.kernelInsts + total.warm.scalarInsts;

    const double ffSeconds = selfOf("warm.ff");
    const double detailedSeconds = selfOf("detailed.run");
    const std::vector<std::pair<std::string, double>> metrics = {
        {"traced.wall_s", wall},
        {"trace.compiles", double(ts.compiles)},
        {"trace.bytes_mapped", double(ts.bytesMapped)},
        {"trace.compile_s", ts.compileSeconds},
        {"detailed.ns_per_inst",
         ratio(detailedSeconds, double(total.detailedInsts), 1e9)},
        {"detailed.ns_per_cycle",
         ratio(detailedSeconds, double(total.detailedCycles), 1e9)},
        {"detailed.insts", double(total.detailedInsts)},
        {"detailed.cycles", double(total.detailedCycles)},
        {"warm.ns_per_inst", ratio(ffSeconds, double(total.ffInsts), 1e9)},
        {"warm.kernel_frac",
         ratio(double(total.warm.kernelInsts), double(warmInsts))},
        {"warm.scalar_insts", double(total.warm.scalarInsts)},
        {"warm.branch_events", double(total.warm.branchEvents)},
        {"warm.lines_touched", double(total.warm.linesTouched)},
        {"ckpt.hits", double(cs.hits)},
        {"ckpt.misses", double(cs.misses)},
        {"ckpt.bytes_read", double(cs.bytesRead)},
        {"ckpt.bytes_written", double(cs.bytesWritten)},
        {"bpred.cond_mpki", ratio(double(m[CondMiss]), kilo)},
        {"bpred.target_mpki", ratio(double(m[TargetMiss]), kilo)},
        {"btb.l0_hit", btbHit(0)},
        {"btb.l1_hit", btbHit(1)},
        {"btb.l2_hit", btbHit(2)},
        {"cache.l0i_mpki", ratio(double(m[L0iMisses]), kilo)},
        {"cache.l1d_mpki", ratio(double(m[L1dMisses]), kilo)},
        {"cache.l2_mpki", ratio(double(m[L2Misses]), kilo)},
        {"frontend.wrong_path_pki", ratio(double(m[WrongPathInsts]), kilo)},
        {"frontend.decode_resteers_pki",
         ratio(double(m[DecodeResteers]), kilo)},
        {"core.coupled_frac",
         ratio(double(m[CoupledCommitted]), double(m[Insts]))},
        {"core.elf_switches_pki", ratio(double(m[ElfSwitches]), kilo)},
        {"core.divergence_flushes_pki",
         ratio(double(m[DivergenceFlushes]), kilo)},
        {"backend.ipc", ratio(double(m[Insts]), double(m[Cycles]))},
        {"backend.rob_full_frac",
         ratio(double(m[RobFullCycles]), double(m[Cycles]))},
    };

    const std::uint64_t bytesAfter = dirBytes(a.cacheDir);
    JsonWriter w(std::cout, false);
    w.beginObject();
    w.field("cells", std::uint64_t(ex.jobs.size()));
    w.field("mismatches", std::uint64_t(mismatches));
    w.field("wall_s", wall);
    // Every layer, by its metric name; one a workload bypasses reads 0.
    w.key("self_s").beginObject();
    for (const auto &[span, metric] : layerSpans)
        w.field(metric, selfOf(span));
    w.endObject();
    w.key("metrics").beginObject();
    for (const auto &[name, v] : metrics)
        w.field(name, v);
    w.endObject();
    w.field("peak_rss_mib", peakRssMib());
    w.field("artifact_mib",
            double(bytesAfter > bytesBefore ? bytesAfter - bytesBefore
                                            : 0) / mib);
    w.endObject();
    std::cout << '\n';
    return mismatches ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    try {
        configureCaches(a);
        return a.spans.empty() ? runUntraced(a) : runTraced(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "benchmark error: %s\n", e.what());
        return 1;
    }
}
