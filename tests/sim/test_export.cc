/**
 * @file
 * Export-layer tests, reading the documents back with json::parse:
 * the machine-readable pipeline (a) round-trips every RunResult field
 * losslessly, (b) is byte-identical across sweep thread counts, (c)
 * exports a sampled run's timeline as one row per measured window,
 * tiling the measured instructions and cycles exactly, and (d) keeps
 * a failed cell's row.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/json.hh"
#include "sim/export.hh"
#include "sim/sweep.hh"
#include "workload/builders.hh"
#include "workload/checkpoint_store.hh"

using namespace elfsim;

namespace {

RunOptions
smallWindow()
{
    RunOptions o;
    o.warmupInsts = 20000;
    o.measureInsts = 30000;
    return o;
}

/** Ten measured windows of 2500 insts, one per 10000-inst period. */
RunOptions
sampledWindow()
{
    RunOptions o;
    o.warmupInsts = 0;
    o.measureInsts = 100000;
    o.samplePeriodInsts = 10000;
    o.sampleLengthInsts = 2500;
    o.sampleWarmupInsts = 500;
    return o;
}

/** Hermetic sampled runs: counters must not depend on ambient cache
 *  warmth. */
class ScopedCkptOff
{
  public:
    ScopedCkptOff() : prev(CheckpointStore::instance().enabled())
    {
        CheckpointStore::instance().setEnabled(false);
    }
    ~ScopedCkptOff() { CheckpointStore::instance().setEnabled(prev); }

  private:
    bool prev;
};

std::string
toJson(const RunResult &r)
{
    std::ostringstream os;
    JsonWriter w(os);
    writeRunResult(w, r);
    return os.str();
}

/** Expect @a obj to carry every field of @a fields, with the same
 *  value bit for bit (strings, counters and doubles alike); returns
 *  the number of fields. */
template <typename T>
std::size_t
expectFieldsMatch(const json::Value &obj, const T &fields)
{
    std::size_t n = 0;
    fields.forEachField([&obj, &n](const char *name, const auto &val) {
        SCOPED_TRACE(name);
        ++n;
        ASSERT_NE(obj.find(name), nullptr);
        using V = std::decay_t<decltype(val)>;
        if constexpr (std::is_same_v<V, std::string>)
            EXPECT_EQ(obj.at(name).asString(), val);
        else if constexpr (std::is_floating_point_v<V>)
            EXPECT_EQ(obj.at(name).asDouble(), val);
        else
            EXPECT_EQ(obj.at(name).asU64(), val);
    });
    return n;
}

} // namespace

TEST(Export, RoundTripsEveryRunResultField)
{
    ScopedCkptOff off;
    Program p = microRandomBranchLoop(8, 0.4);
    const RunResult r = runSimulation(
        p, makeConfig(FrontendVariant::UElf), sampledWindow());
    const json::Value doc = json::parse(toJson(r));

    // Every scalar of the single-source-of-truth walk survives the
    // round trip exactly — strings as strings, numbers bit-identical
    // (shortest-round-trip formatting + strtod).
    EXPECT_GE(expectFieldsMatch(doc, r), 23u);

    EXPECT_EQ(doc.at("interval_insts").asU64(), 2500u);
    const json::Value &timeline = doc.at("timeline");
    ASSERT_EQ(r.timeline.size(), 10u);
    ASSERT_EQ(timeline.size(), r.timeline.size());
    for (std::size_t i = 0; i < r.timeline.size(); ++i)
        expectFieldsMatch(timeline[i], r.timeline[i]);
}

TEST(Export, SamplingBlockPresentOnlyForSampledRuns)
{
    ScopedCkptOff off;
    Program p = microRandomBranchLoop(8, 0.4);
    const RunResult s = runSimulation(
        p, makeConfig(FrontendVariant::UElf), sampledWindow());
    const RunResult f = runSimulation(
        p, makeConfig(FrontendVariant::UElf), smallWindow());

    // A full run emits the exact pre-sampling schema: no block, no
    // timeline rows, interval_insts 0.
    const json::Value full = json::parse(toJson(f));
    EXPECT_EQ(full.find("sampling"), nullptr);
    EXPECT_EQ(full.at("timeline").size(), 0u);
    EXPECT_EQ(full.at("interval_insts").asU64(), 0u);

    const json::Value doc = json::parse(toJson(s));
    const json::Value &blk = doc.at("sampling");
    // Every extrapolation field survives with its exported name and
    // value, bit-exact.
    EXPECT_GE(expectFieldsMatch(blk, s.sampling), 11u);
    EXPECT_EQ(blk.at("period_insts").asU64(), 10000u);
    EXPECT_EQ(blk.at("length_insts").asU64(), 2500u);
    EXPECT_EQ(blk.at("warmup_insts").asU64(), 500u);
    EXPECT_EQ(blk.at("windows").asU64(), 10u);
    EXPECT_EQ(blk.at("total_insts").asU64(), 100000u);
    EXPECT_EQ(blk.at("measured_insts").asU64(), s.insts);
}

TEST(Export, SamplingBlockRoundTripsThroughRunResultFromJson)
{
    ScopedCkptOff off;
    Program p = microSequentialLoop(30, 16);
    const RunResult s = runSimulation(
        p, makeConfig(FrontendVariant::UElf), sampledWindow());
    const RunResult f = runSimulation(
        p, makeConfig(FrontendVariant::UElf), smallWindow());

    // Parse the export back: the restored result re-exports
    // byte-identically, sampled flag and extrapolation block intact.
    const RunResult s2 = runResultFromJson(json::parse(toJson(s)));
    EXPECT_TRUE(s2.sampled);
    EXPECT_EQ(toJson(s2), toJson(s));

    const RunResult f2 = runResultFromJson(json::parse(toJson(f)));
    EXPECT_FALSE(f2.sampled);
    EXPECT_EQ(toJson(f2), toJson(f));
}

// "interval_insts" is derived from the sampling block; a row where
// the two disagree was not written by this exporter.
TEST(Export, IntervalInstsMustMatchTheSamplingBlock)
{
    ScopedCkptOff off;
    Program p = microSequentialLoop(30, 16);
    const std::string sampled = toJson(runSimulation(
        p, makeConfig(FrontendVariant::UElf), sampledWindow()));
    const std::string full = toJson(runSimulation(
        p, makeConfig(FrontendVariant::UElf), smallWindow()));

    const auto withInterval = [](std::string text, const char *from,
                                 const char *to) {
        const std::string key = "\"interval_insts\": ";
        const std::size_t at = text.find(key + from);
        EXPECT_NE(at, std::string::npos) << text;
        return text.replace(at, key.size() + std::strlen(from),
                            key + to);
    };
    EXPECT_THROW(runResultFromJson(json::parse(
                     withInterval(sampled, "2500", "2501"))),
                 ParseError);
    EXPECT_THROW(runResultFromJson(json::parse(
                     withInterval(sampled, "2500", "0"))),
                 ParseError);
    EXPECT_THROW(runResultFromJson(json::parse(
                     withInterval(full, "0", "5000"))),
                 ParseError);
}

TEST(Export, SweepJsonIsThreadCountInvariant)
{
    ScopedCkptOff off;
    Program a = microRandomBranchLoop(8, 0.4);
    Program b = microSequentialLoop(30, 16);
    const std::vector<SweepJob> grid = {
        makeVariantJob(a, FrontendVariant::Dcf, sampledWindow()),
        makeVariantJob(a, FrontendVariant::UElf, sampledWindow()),
        makeVariantJob(b, FrontendVariant::Dcf, sampledWindow()),
        makeVariantJob(b, FrontendVariant::UElf, sampledWindow()),
    };

    SweepRunner serial(1);
    SweepRunner parallel(4);
    const std::vector<RunResult> rs = serial.run(grid);
    const std::vector<RunResult> rp = parallel.run(grid);

    std::ostringstream osSerial, osParallel;
    writeResultsJson(osSerial, rs);
    writeResultsJson(osParallel, rp);
    // Byte-identical documents, timelines included: the merged
    // results depend only on the grid, never on the thread count.
    EXPECT_EQ(osSerial.str(), osParallel.str());

    const json::Value doc = json::parse(osSerial.str());
    EXPECT_EQ(doc.at("schema").asString(), "elfsim-results-v2");
    const json::Value &results = doc.at("results");
    ASSERT_EQ(results.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(results[i].at("timeline").size(), 10u) << i;
}

TEST(Export, TimelineTilesTheMeasurementWindow)
{
    ScopedCkptOff off;
    Program p = microRandomBranchLoop(8, 0.4);
    const RunOptions o = sampledWindow();
    const RunResult r =
        runSimulation(p, makeConfig(FrontendVariant::UElf), o);

    ASSERT_EQ(r.timeline.size(), r.sampling.windows);
    InstCount insts = 0;
    Cycle cycles = 0;
    for (std::size_t w = 0; w < r.timeline.size(); ++w) {
        const IntervalSample &s = r.timeline[w];
        SCOPED_TRACE(w);
        // One row per period, in stream order, each measured window
        // starting inside its own period.
        EXPECT_GE(s.startInst, w * o.samplePeriodInsts);
        EXPECT_LT(s.startInst, (w + 1) * o.samplePeriodInsts);
        if (w > 0) {
            EXPECT_GT(s.startInst, r.timeline[w - 1].startInst);
        }
        EXPECT_GT(s.insts, 0u);
        if (s.cycles) {
            EXPECT_EQ(s.ipc, double(s.insts) / double(s.cycles));
        }
        insts += s.insts;
        cycles += s.cycles;
    }
    // The rows tile the measured windows exactly: their insts and
    // cycles sum to the summary's totals.
    EXPECT_EQ(insts, r.insts);
    EXPECT_EQ(cycles, r.cycles);
}

// A failed cell keeps its row in the document: status "failed", the
// error text, attempts 1. The wedged core (a ROB smaller than the
// fetch width) fails through Core::run's no-progress panic.
TEST(Export, FailedCellsSurviveTheV2Document)
{
    Program a = microRandomBranchLoop(8, 0.4);
    std::vector<SweepJob> grid = {
        makeVariantJob(a, FrontendVariant::Dcf, smallWindow()),
        makeVariantJob(a, FrontendVariant::UElf, smallWindow()),
    };
    grid[0].cfg.backend.robEntries = 4;
    SweepRunner runner(1);
    runner.run(grid);

    std::ostringstream os;
    writeSweepJson(os, runner.results(), nullptr);
    const json::Value doc = json::parse(os.str());
    EXPECT_EQ(doc.at("schema").asString(), "elfsim-results-v2");
    const json::Value &failed = doc.at("results")[0];
    EXPECT_EQ(failed.at("status").asString(), "failed");
    EXPECT_NE(failed.at("error").asString().find("no forward progress"),
              std::string::npos);
    EXPECT_EQ(failed.at("attempts").asU64(), 1u);
    EXPECT_EQ(failed.at("insts").asU64(), 0u);
    EXPECT_EQ(doc.at("results")[1].at("status").asString(), "ok");
}
