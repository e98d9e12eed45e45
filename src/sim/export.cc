#include "sim/export.hh"

#include <string>
#include <string_view>
#include <thread>
#include <type_traits>

#include "common/logging.hh"

namespace elfsim {

namespace {

/** forEachField visitor writing each ("name", value) as a JSON field. */
struct JsonFieldVisitor
{
    JsonWriter &w;

    void
    operator()(const char *name, const std::string &v) const
    {
        w.field(name, std::string_view(v));
    }
    void
    operator()(const char *name, double v) const
    {
        w.field(name, v);
    }
    void
    operator()(const char *name, std::uint64_t v) const
    {
        w.field(name, v);
    }
};

/** forEachField visitor appending each value as a CSV cell. */
struct CsvCellVisitor
{
    CsvWriter &w;

    void
    operator()(const char *, const std::string &v) const
    {
        w.cell(std::string_view(v));
    }
    void
    operator()(const char *, double v) const
    {
        w.cell(v);
    }
    void
    operator()(const char *, std::uint64_t v) const
    {
        w.cell(v);
    }
};

/**
 * @a with_host appends host metadata (machine CPU count and the
 * effective thread count the run actually used) — only the throughput
 * document asks for it: host facts there make MIPS figures comparable
 * across machines, but they would break the byte-identity guarantee
 * of the results document, whose timing block must stay a pure
 * function of the sweep.
 */
void
writeTiming(JsonWriter &w, const SweepTiming &t, bool with_host = false)
{
    w.beginObject();
    w.field("jobs", std::uint64_t(t.jobs));
    w.field("threads", std::uint64_t(t.threads));
    w.field("wall_seconds", t.wallSeconds);
    w.field("serial_seconds", t.serialSeconds);
    w.field("speedup", t.speedup());
    w.field("sim_cycles", t.simCycles);
    w.field("sim_insts", t.simInsts);
    w.field("sim_cycles_per_second", t.cyclesPerSecond());
    if (with_host) {
        w.field("host_cpus",
                std::uint64_t(std::thread::hardware_concurrency()));
        w.field("host_jobs", std::uint64_t(t.threads));
    }
    w.endObject();
}

void
writeTraceStats(JsonWriter &w, const TraceStats &t)
{
    w.beginObject();
    TraceStats::visitFields(t, JsonFieldVisitor{w});
    w.endObject();
}

} // namespace

void
writeRunResult(JsonWriter &w, const RunResult &r)
{
    w.beginObject();
    r.forEachField(JsonFieldVisitor{w});
    w.field("status", jobStatusName(r.status));
    w.field("interval_insts", r.intervalInsts);
    w.key("timeline");
    w.beginArray();
    for (const IntervalSample &s : r.timeline) {
        w.beginObject();
        s.forEachField(JsonFieldVisitor{w});
        w.endObject();
    }
    w.endArray();
    // The extrapolation block exists only for sampled runs, so full
    // runs keep the exact schema they have always had.
    if (r.sampled) {
        w.key("sampling");
        w.beginObject();
        r.sampling.forEachField(JsonFieldVisitor{w});
        w.endObject();
    }
    w.endObject();
}

namespace {

/** visitFields visitor assigning each named member from a parsed
 *  JSON object (the inverse of JsonFieldVisitor). */
struct JsonFieldLoader
{
    const json::Value &obj;

    void
    operator()(const char *name, std::string &v) const
    {
        v = obj.at(name).asString();
    }
    void
    operator()(const char *name, double &v) const
    {
        v = obj.at(name).asDouble();
    }
    void
    operator()(const char *name, std::uint64_t &v) const
    {
        v = obj.at(name).asU64();
    }
};

} // namespace

RunResult
runResultFromJson(const json::Value &obj)
{
    RunResult r;
    RunResult::visitFields(r, JsonFieldLoader{obj});
    if (!parseJobStatus(obj.at("status").asString(), r.status))
        throw ParseError(
            errorf("unknown job status '%s'",
                   obj.at("status").asString().c_str()));
    r.intervalInsts = obj.at("interval_insts").asU64();
    const json::Value &timeline = obj.at("timeline");
    r.timeline.resize(timeline.size());
    for (std::size_t i = 0; i < timeline.size(); ++i)
        IntervalSample::visitFields(r.timeline[i],
                                    JsonFieldLoader{timeline[i]});
    if (const json::Value *sampling = obj.find("sampling")) {
        r.sampled = true;
        SamplingInfo::visitFields(r.sampling,
                                  JsonFieldLoader{*sampling});
    }
    return r;
}

void
writeSweepJson(std::ostream &os, const std::vector<RunResult> &results,
               const SweepTiming *timing, const TraceStats *trace)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "elfsim-results-v2");
    if (timing) {
        w.key("timing");
        writeTiming(w, *timing);
    }
    if (trace) {
        w.key("trace");
        writeTraceStats(w, *trace);
    }
    w.key("results");
    w.beginArray();
    for (const RunResult &r : results)
        writeRunResult(w, r);
    w.endArray();
    w.endObject();
}

void
writeResultsJson(std::ostream &os, const std::vector<RunResult> &results)
{
    writeSweepJson(os, results);
}

void
writeResultsCsv(std::ostream &os, const std::vector<RunResult> &results)
{
    CsvWriter w(os);
    RunResult{}.forEachField(
        [&w](const char *name, const auto &) { w.cell(name); });
    w.cell("status").cell("interval_insts").cell("timeline_samples");
    w.endRow();
    for (const RunResult &r : results) {
        r.forEachField(CsvCellVisitor{w});
        w.cell(jobStatusName(r.status))
            .cell(r.intervalInsts)
            .cell(std::uint64_t(r.timeline.size()));
        w.endRow();
    }
}

void
writeThroughputJson(std::ostream &os,
                    const std::vector<RunResult> &results,
                    const std::vector<double> &job_seconds,
                    const SweepTiming &timing)
{
    ELFSIM_ASSERT(results.size() == job_seconds.size(),
                  "throughput export needs one wall-clock per result");
    // Sampled rows report *effective* throughput: the whole stream the
    // run covered (fast-forward + detailed windows) per host second,
    // and the extrapolated cycle total — that is the quantity sampling
    // buys, and the one the >=50x gate in scripts/perf_smoke.sh reads.
    const auto effInsts = [](const RunResult &r) {
        return r.sampled ? r.sampling.totalInsts : r.insts;
    };
    const auto effCycles = [](const RunResult &r) {
        return r.sampled ? r.sampling.estTotalCycles : r.cycles;
    };
    std::vector<double> mips, okMips;
    mips.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const double s = job_seconds[i];
        mips.push_back(s > 0 ? double(effInsts(results[i])) / s / 1e6
                             : 0);
        // Failed or resumed cells carry no wall-clock; keep their
        // zeros out of the geomean (which requires positives).
        if (results[i].ok() && mips.back() > 0)
            okMips.push_back(mips.back());
    }

    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "elfsim-throughput-v1");
    w.key("timing");
    writeTiming(w, timing, /*with_host=*/true);
    w.field("geomean_mips", geomean(okMips));
    w.key("throughput");
    w.beginArray();
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        const double s = job_seconds[i];
        w.beginObject();
        w.field("workload", std::string_view(r.workload));
        w.field("variant", std::string_view(r.variant));
        w.field("wall_seconds", s);
        w.field("sim_insts", std::uint64_t(effInsts(r)));
        w.field("sim_cycles", std::uint64_t(effCycles(r)));
        w.field("mips", mips[i]);
        w.field("cycles_per_host_us",
                s > 0 ? double(effCycles(r)) / s / 1e6 : 0);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeTimelineCsv(std::ostream &os, const std::vector<RunResult> &results)
{
    CsvWriter w(os);
    w.cell("workload").cell("variant");
    IntervalSample{}.forEachField(
        [&w](const char *name, const auto &) { w.cell(name); });
    w.endRow();
    for (const RunResult &r : results) {
        for (const IntervalSample &s : r.timeline) {
            w.cell(std::string_view(r.workload))
                .cell(std::string_view(r.variant));
            s.forEachField(CsvCellVisitor{w});
            w.endRow();
        }
    }
}

} // namespace elfsim
