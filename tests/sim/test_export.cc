/**
 * @file
 * Export-layer tests: a minimal recursive-descent JSON parser
 * validates that the machine-readable pipeline (a) round-trips every
 * RunResult field losslessly, (b) is byte-identical across sweep
 * thread counts, (c) captures interval timelines that exactly tile
 * the measurement window without perturbing the simulation.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
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

// ---------------------------------------------------------------------
// Minimal JSON parser (objects, arrays, strings, numbers, literals).
// Doubles parse via strtod, so shortest-round-trip output compares
// bit-exactly against the original values.
// ---------------------------------------------------------------------

struct JVal
{
    enum Kind { Null, Bool, Num, Str, Obj, Arr } kind = Null;
    bool b = false;
    double num = 0;
    std::string str;
    std::map<std::string, JVal> obj;
    std::vector<JVal> arr;

    bool has(const std::string &k) const { return obj.count(k) > 0; }
    const JVal &
    at(const std::string &k) const
    {
        auto it = obj.find(k);
        EXPECT_NE(it, obj.end()) << "missing key: " << k;
        static const JVal none;
        return it == obj.end() ? none : it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string text) : s(std::move(text)) {}

    JVal
    parse()
    {
        JVal v = parseValue();
        skipWs();
        EXPECT_EQ(pos, s.size()) << "trailing garbage after JSON";
        return v;
    }

    bool ok() const { return !failed; }

  private:
    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\n' || s[pos] == '\t' ||
                s[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        skipWs();
        return pos < s.size() ? s[pos] : '\0';
    }

    void
    expect(char c)
    {
        skipWs();
        if (pos >= s.size() || s[pos] != c) {
            ADD_FAILURE() << "expected '" << c << "' at offset " << pos;
            failed = true;
            return;
        }
        ++pos;
    }

    JVal
    parseValue()
    {
        if (failed)
            return {};
        const char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"') {
            JVal v;
            v.kind = JVal::Str;
            v.str = parseString();
            return v;
        }
        if (c == 't' || c == 'f') {
            JVal v;
            v.kind = JVal::Bool;
            v.b = (c == 't');
            pos += v.b ? 4 : 5;
            return v;
        }
        if (c == 'n') {
            pos += 4;
            return {};
        }
        return parseNumber();
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\' && pos + 1 < s.size()) {
                ++pos;
                switch (s[pos]) {
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'u':
                    // Only \u00XX escapes are emitted by JsonWriter.
                    out += char(std::strtol(
                        s.substr(pos + 1, 4).c_str(), nullptr, 16));
                    pos += 4;
                    break;
                  default: out += s[pos];
                }
                ++pos;
            } else {
                out += s[pos++];
            }
        }
        expect('"');
        return out;
    }

    JVal
    parseNumber()
    {
        skipWs();
        const char *start = s.c_str() + pos;
        char *end = nullptr;
        JVal v;
        v.kind = JVal::Num;
        v.num = std::strtod(start, &end);
        if (end == start) {
            ADD_FAILURE() << "bad number at offset " << pos;
            failed = true;
            return v;
        }
        pos += std::size_t(end - start);
        return v;
    }

    JVal
    parseObject()
    {
        JVal v;
        v.kind = JVal::Obj;
        expect('{');
        if (peek() == '}') {
            expect('}');
            return v;
        }
        while (!failed) {
            const std::string k = parseString();
            expect(':');
            v.obj[k] = parseValue();
            if (peek() != ',')
                break;
            expect(',');
        }
        expect('}');
        return v;
    }

    JVal
    parseArray()
    {
        JVal v;
        v.kind = JVal::Arr;
        expect('[');
        if (peek() == ']') {
            expect(']');
            return v;
        }
        while (!failed) {
            v.arr.push_back(parseValue());
            if (peek() != ',')
                break;
            expect(',');
        }
        expect(']');
        return v;
    }

    const std::string s;
    std::size_t pos = 0;
    bool failed = false;
};

RunOptions
smallWindow(InstCount interval = 0)
{
    RunOptions o;
    o.warmupInsts = 20000;
    o.measureInsts = 30000;
    o.intervalInsts = interval;
    return o;
}

std::string
toJson(const RunResult &r)
{
    std::ostringstream os;
    JsonWriter w(os);
    writeRunResult(w, r);
    return os.str();
}

} // namespace

TEST(Export, RoundTripsEveryRunResultField)
{
    Program p = microRandomBranchLoop(8, 0.4);
    const RunResult r = runSimulation(
        p, makeConfig(FrontendVariant::UElf), smallWindow(5000));

    JsonParser parser(toJson(r));
    const JVal doc = parser.parse();
    ASSERT_TRUE(parser.ok());
    ASSERT_EQ(doc.kind, JVal::Obj);

    // Every scalar of the single-source-of-truth walk survives the
    // round trip exactly — strings as strings, numbers bit-identical
    // (shortest-round-trip formatting + strtod).
    std::size_t fields = 0;
    r.forEachField([&doc, &fields](const char *name, const auto &val) {
        SCOPED_TRACE(name);
        ++fields;
        ASSERT_TRUE(doc.has(name));
        using T = std::decay_t<decltype(val)>;
        if constexpr (std::is_same_v<T, std::string>) {
            EXPECT_EQ(doc.at(name).str, val);
        } else {
            EXPECT_EQ(doc.at(name).num, double(val));
        }
    });
    EXPECT_GE(fields, 23u);

    ASSERT_TRUE(doc.has("interval_insts"));
    EXPECT_EQ(doc.at("interval_insts").num, 5000.0);
    ASSERT_TRUE(doc.has("timeline"));
    ASSERT_EQ(doc.at("timeline").arr.size(), r.timeline.size());
    for (std::size_t i = 0; i < r.timeline.size(); ++i) {
        const JVal &row = doc.at("timeline").arr[i];
        r.timeline[i].forEachField(
            [&row](const char *name, const auto &val) {
                SCOPED_TRACE(name);
                ASSERT_TRUE(row.has(name));
                EXPECT_EQ(row.at(name).num, double(val));
            });
    }
}

TEST(Export, SamplingBlockPresentOnlyForSampledRuns)
{
    // Hermetic: counters must not depend on ambient cache warmth.
    const bool prevCkpt = CheckpointStore::instance().enabled();
    CheckpointStore::instance().setEnabled(false);

    Program p = microRandomBranchLoop(8, 0.4);
    RunOptions so;
    so.warmupInsts = 0;
    so.measureInsts = 100000;
    so.samplePeriodInsts = 10000;
    so.sampleLengthInsts = 2500;
    so.sampleWarmupInsts = 500;
    const RunResult s =
        runSimulation(p, makeConfig(FrontendVariant::UElf), so);
    const RunResult f = runSimulation(
        p, makeConfig(FrontendVariant::UElf), smallWindow());
    CheckpointStore::instance().setEnabled(prevCkpt);

    // A full run emits the exact pre-sampling schema: no block.
    {
        JsonParser parser(toJson(f));
        const JVal doc = parser.parse();
        ASSERT_TRUE(parser.ok());
        EXPECT_FALSE(doc.has("sampling"));
    }

    JsonParser parser(toJson(s));
    const JVal doc = parser.parse();
    ASSERT_TRUE(parser.ok());
    ASSERT_TRUE(doc.has("sampling"));
    const JVal &blk = doc.at("sampling");
    ASSERT_EQ(blk.kind, JVal::Obj);
    // Every extrapolation field survives with its exported name and
    // value, bit-exact.
    std::size_t fields = 0;
    s.sampling.forEachField(
        [&blk, &fields](const char *name, const auto &val) {
            SCOPED_TRACE(name);
            ++fields;
            ASSERT_TRUE(blk.has(name));
            EXPECT_EQ(blk.at(name).num, double(val));
        });
    EXPECT_GE(fields, 11u);
    EXPECT_EQ(blk.at("period_insts").num, 10000.0);
    EXPECT_EQ(blk.at("length_insts").num, 2500.0);
    EXPECT_EQ(blk.at("warmup_insts").num, 500.0);
    EXPECT_EQ(blk.at("windows").num, 10.0);
    EXPECT_EQ(blk.at("total_insts").num, 100000.0);
    EXPECT_EQ(blk.at("measured_insts").num, double(s.insts));
}

TEST(Export, SamplingBlockRoundTripsThroughRunResultFromJson)
{
    const bool prevCkpt = CheckpointStore::instance().enabled();
    CheckpointStore::instance().setEnabled(false);

    Program p = microSequentialLoop(30, 16);
    RunOptions so;
    so.warmupInsts = 0;
    so.measureInsts = 100000;
    so.samplePeriodInsts = 10000;
    so.sampleLengthInsts = 2500;
    so.sampleWarmupInsts = 500;
    const RunResult s =
        runSimulation(p, makeConfig(FrontendVariant::UElf), so);
    const RunResult f = runSimulation(
        p, makeConfig(FrontendVariant::UElf), smallWindow());
    CheckpointStore::instance().setEnabled(prevCkpt);

    // Parse the export back: the restored result re-exports
    // byte-identically, sampled flag and extrapolation block intact.
    const RunResult s2 = runResultFromJson(json::parse(toJson(s)));
    EXPECT_TRUE(s2.sampled);
    EXPECT_EQ(toJson(s2), toJson(s));

    const RunResult f2 = runResultFromJson(json::parse(toJson(f)));
    EXPECT_FALSE(f2.sampled);
    EXPECT_EQ(toJson(f2), toJson(f));
}

TEST(Export, SweepJsonIsThreadCountInvariant)
{
    Program a = microRandomBranchLoop(8, 0.4);
    Program b = microSequentialLoop(30, 16);
    const std::vector<SweepJob> grid = {
        makeVariantJob(a, FrontendVariant::Dcf, smallWindow(10000)),
        makeVariantJob(a, FrontendVariant::UElf, smallWindow(10000)),
        makeVariantJob(b, FrontendVariant::Dcf, smallWindow(10000)),
        makeVariantJob(b, FrontendVariant::UElf, smallWindow(10000)),
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

    JsonParser parser(osSerial.str());
    const JVal doc = parser.parse();
    ASSERT_TRUE(parser.ok());
    EXPECT_EQ(doc.at("schema").str, "elfsim-results-v2");
    ASSERT_EQ(doc.at("results").arr.size(), grid.size());
}

TEST(Export, TimelineTilesTheMeasurementWindow)
{
    Program p = microRandomBranchLoop(8, 0.4);
    const RunResult r = runSimulation(
        p, makeConfig(FrontendVariant::UElf), smallWindow(5000));

    ASSERT_FALSE(r.timeline.empty());
    InstCount insts = 0;
    Cycle cycles = 0;
    InstCount expectStart = 0;
    for (const IntervalSample &s : r.timeline) {
        EXPECT_EQ(s.startInst, expectStart);
        EXPECT_GT(s.insts, 0u);
        if (s.cycles) {
            EXPECT_EQ(s.ipc, double(s.insts) / double(s.cycles));
        }
        expectStart += s.insts;
        insts += s.insts;
        cycles += s.cycles;
    }
    // The samples tile the window exactly: per-interval insts and
    // cycles sum to the summary's measurement-window totals.
    EXPECT_EQ(insts, r.insts);
    EXPECT_EQ(cycles, r.cycles);
}

TEST(Export, IntervalSamplingDoesNotPerturbTheRun)
{
    Program p = microRandomBranchLoop(8, 0.4);
    const SimConfig cfg = makeConfig(FrontendVariant::UElf);
    RunResult plain = runSimulation(p, cfg, smallWindow());
    RunResult sampled = runSimulation(p, cfg, smallWindow(4000));

    EXPECT_TRUE(plain.timeline.empty());
    EXPECT_FALSE(sampled.timeline.empty());

    // Chunked ticking is cycle-for-cycle identical to one-shot
    // ticking: every summary scalar matches bit-exactly.
    sampled.intervalInsts = plain.intervalInsts;
    sampled.timeline = plain.timeline;
    EXPECT_EQ(toJson(plain), toJson(sampled));
}

TEST(Export, CsvHasHeaderAndOneRowPerResult)
{
    Program p = microSequentialLoop(30, 16);
    const std::vector<SweepJob> grid = {
        makeVariantJob(p, FrontendVariant::Dcf, smallWindow(10000)),
        makeVariantJob(p, FrontendVariant::UElf, smallWindow(10000)),
    };
    SweepRunner runner(1);
    const std::vector<RunResult> rs = runner.run(grid);

    std::ostringstream os;
    writeResultsCsv(os, rs);
    std::istringstream in(os.str());
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 1 + rs.size());
    EXPECT_NE(lines[0].find("workload,variant,cycles"),
              std::string::npos);
    EXPECT_NE(lines[0].find("interval_insts"), std::string::npos);

    std::ostringstream ts;
    writeTimelineCsv(ts, rs);
    std::istringstream tin(ts.str());
    std::size_t trows = 0;
    while (std::getline(tin, line))
        ++trows;
    std::size_t samples = 0;
    for (const RunResult &r : rs)
        samples += r.timeline.size();
    ASSERT_GT(samples, 0u);
    EXPECT_EQ(trows, 1 + samples);
}

