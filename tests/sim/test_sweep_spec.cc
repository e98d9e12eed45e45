/**
 * @file
 * SweepSpec tests: JSON parse/expand/serialize round-trips, rejection
 * of malformed specs (unknown fields, contradictory sampling), the
 * SimConfig knob registry, and — the load-bearing guarantee of the
 * bench migration — spec-vs-legacy grid identity: every bench's
 * bench_specs.hh builder expands to exactly the grid the old
 * hand-rolled loops assembled (same order, same configs, same
 * windows), checked via each cell's identity + configFingerprint.
 */

#include <gtest/gtest.h>

#include <climits>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_specs.hh"
#include "common/error.hh"
#include "sim/export.hh"
#include "sim/sweep_spec.hh"
#include "workload/builders.hh"
#include "workload/catalog.hh"

using namespace elfsim;

namespace {

RunOptions
smallWindow()
{
    RunOptions o;
    o.warmupInsts = 2000;
    o.measureInsts = 4000;
    return o;
}

std::string
specJson(const SweepSpec &spec)
{
    std::ostringstream os;
    writeSweepSpec(os, spec);
    return os.str();
}

/** Identity of one grid cell: workload, variant, windows, sampling
 *  schedule, RNG seed and the full configuration fingerprint. */
std::string
cellKey(const SweepJob &j)
{
    std::string k = j.program->name();
    k += '|';
    k += variantName(j.cfg.variant);
    k += "|w" + std::to_string(j.opts.warmupInsts);
    k += "|m" + std::to_string(j.opts.measureInsts);
    k += "|p" + std::to_string(j.opts.samplePeriodInsts);
    k += "|l" + std::to_string(j.opts.sampleLengthInsts);
    k += "|u" + std::to_string(j.opts.sampleWarmupInsts);
    k += "|s" + std::to_string(j.cfg.rngSeed);
    k += "|cfg" + std::to_string(configFingerprint(j.cfg));
    return k;
}

/** A one-group spec document: @a top (leading top-level fields, each
 *  followed by a comma), then @a selector crossed with @a config. */
std::string
groupSpec(const std::string &selector,
          const std::string &config = "{\"variant\":\"DCF\"}",
          const std::string &top = "")
{
    return "{\"schema\":\"elfsim-sweepspec-v1\"," + top +
           "\"groups\":[{\"workloads\":[" + selector +
           "],\"configs\":[" + config + "]}]}";
}

void
expectSameGrid(const std::vector<SweepJob> &legacy,
               const std::vector<SweepJob> &fromSpec)
{
    ASSERT_EQ(legacy.size(), fromSpec.size());
    for (std::size_t i = 0; i < legacy.size(); ++i)
        EXPECT_EQ(cellKey(legacy[i]), cellKey(fromSpec[i]))
            << "grid cell " << i;
}

} // namespace

// ---------------------------------------------------------------------
// Round-trips
// ---------------------------------------------------------------------

TEST(SweepSpecJson, CanonicalRoundTripIsByteIdentical)
{
    // A spec exercising every selector kind and override type.
    SweepSpec spec = bench::ablationDcfSpec(smallWindow());
    spec.name = "round_trip";
    spec.jobs = 3;
    spec.baseSeed = 42;
    SweepGroup extra;
    extra.workloads = {
        WorkloadSelector::micro("random_branch_loop", {8, 0.5}),
        WorkloadSelector::set("elf_relevant", 2),
    };
    extra.configs = {ConfigSpec(FrontendVariant::UElf, "sampled row")
                         .setText("payload_policy", "ideal")};
    extra.hasRun = true;
    extra.run.warmupInsts = 0;
    extra.run.measureInsts = 100000;
    extra.run.samplePeriodInsts = 10000;
    extra.run.sampleLengthInsts = 500;
    extra.run.sampleWarmupInsts = 100;
    spec.groups.push_back(std::move(extra));

    const std::string once = specJson(spec);
    const SweepSpec parsed = parseSweepSpec(once);
    EXPECT_EQ(once, specJson(parsed));
}

TEST(SweepSpecJson, ParsedSpecExpandsToTheSameGrid)
{
    const SweepSpec spec = bench::fig7Spec(smallWindow());
    const SweepSpec parsed = parseSweepSpec(specJson(spec));
    expectSameGrid(expandSweep(spec).jobs, expandSweep(parsed).jobs);
}

// Every grid a bench runs, and archives with --dump-spec, reads back
// to the same bytes and passes validation.
TEST(SweepSpecJson, EveryBenchSpecRoundTripsAndValidates)
{
    const RunOptions o = smallWindow();
    for (const SweepSpec &spec :
         {bench::fig3Spec(o), bench::fig6Spec(o), bench::fig7Spec(o),
          bench::fig8Spec(o), bench::fig9Spec(o),
          bench::ablationDcfSpec(o), bench::ablationElfSpec(o),
          bench::throughputSpec(o, 1, false, false),
          bench::throughputSpec(o, 1, true, false),
          bench::serverCapacitySpec(o)}) {
        const std::string once = specJson(spec);
        const SweepSpec parsed = parseSweepSpec(once);
        EXPECT_EQ(specJson(parsed), once) << spec.name;
        EXPECT_NO_THROW(validateSweepSpec(parsed)) << spec.name;
    }
}

// ---------------------------------------------------------------------
// Rejection
// ---------------------------------------------------------------------

// An unknown field is a ParseError naming it. Among them are the forms
// no bench writes: a suite selector and top-level workloads/configs.
TEST(SweepSpecJson, UnknownFieldIsAParseError)
{
    const std::string head = "{\"schema\":\"elfsim-sweepspec-v1\",";
    for (const auto &[text, field] :
         {std::pair<std::string, const char *>{
              head + "\"wrkloads\":[]}", "wrkloads"},
          {head + "\"run\":{\"warmup\":1}}", "warmup"},
          {head + "\"policy\":{\"retries\":0}}", "retries"},
          {groupSpec("{\"suite\":\"2K17 INT\"}"), "suite"},
          {head + "\"workloads\":[{\"name\":\"641.leela\"}],"
                  "\"configs\":[{\"variant\":\"DCF\"}]}",
           "workloads"},
          {head + "\"configs\":[{\"variant\":\"DCF\"}]}", "configs"}}) {
        try {
            parseSweepSpec(text);
            ADD_FAILURE() << "parsed: " << text;
        } catch (const ParseError &e) {
            EXPECT_NE(std::string(e.what()).find(field),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(SweepSpecJson, RetiredPolicyParsesOnlyAtItsOldDefaults)
{
    const auto spec = [](const std::string &policy) {
        return "{\"schema\":\"elfsim-sweepspec-v1\",\"policy\":{" +
               policy + "}}";
    };
    // The block an archived --dump-spec wrote without policy flags.
    EXPECT_NO_THROW(parseSweepSpec(spec(
        "\"keep_going\":true,\"deadline_seconds\":0,"
        "\"stall_seconds\":0,\"max_retries\":0,"
        "\"manifest_path\":\"\",\"resume\":false")));

    // Anything else asks for behaviour that no longer exists: a
    // ConfigError naming the field.
    for (const auto &[field, bad] :
         {std::pair<const char *, const char *>{"max_retries", "1"},
          {"resume", "true"},
          {"deadline_seconds", "5"},
          {"manifest_path", "\"x\""},
          {"stall_seconds", "0.5"},
          {"keep_going", "false"}}) {
        const std::string text =
            spec("\"" + std::string(field) + "\":" + bad);
        try {
            parseSweepSpec(text);
            ADD_FAILURE() << text << " parsed";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(std::string("policy.") +
                                                 field),
                      std::string::npos)
                << e.what();
        }
    }

    // The writer no longer emits the block.
    EXPECT_EQ(specJson(parseSweepSpec(spec("\"resume\":false")))
                  .find("policy"),
              std::string::npos);
}

TEST(SweepSpecJson, RetiredIntervalParsesOnlyAtZero)
{
    const auto spec = [](const char *top, const char *group) {
        return std::string("{\"schema\":\"elfsim-sweepspec-v1\","
                           "\"run\":") +
               top +
               ",\"groups\":[{\"workloads\":[{\"name\":\"641.leela\"}],"
               "\"configs\":[{\"variant\":\"DCF\"}],\"run\":" +
               group + "}]}";
    };
    const char *zero = "{\"interval_insts\":0}";
    const char *nonzero = "{\"interval_insts\":5000}";

    // What every archived --dump-spec wrote, top level and in a
    // group's run.
    const SweepSpec s = parseSweepSpec(spec(zero, zero));
    ASSERT_EQ(s.groups.size(), 1u);
    EXPECT_TRUE(s.groups[0].hasRun);

    // A non-zero value asks for interval capture, which no longer
    // exists: a ConfigError naming the field, from either place.
    for (const std::string &text :
         {spec(nonzero, "{}"), spec("{}", nonzero)}) {
        try {
            parseSweepSpec(text);
            ADD_FAILURE() << text << " parsed";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("run.interval_insts"),
                      std::string::npos)
                << e.what();
        }
    }

    // The writer no longer emits the field.
    EXPECT_EQ(specJson(s).find("interval_insts"), std::string::npos);
}

TEST(SweepSpecJson, MissingOrWrongSchemaRejected)
{
    EXPECT_THROW(parseSweepSpec("{}"), ParseError);
    EXPECT_THROW(parseSweepSpec("{\"schema\":\"elfsim-results-v2\"}"),
                 ParseError);
}

TEST(SweepSpecJson, KindForeignSelectorFieldsRejected)
{
    // stride is set-only, args micro-only, seed/params
    // synthetic-only; anywhere else they would be silently ignored.
    EXPECT_THROW(parseSweepSpec(groupSpec(
                     "{\"name\":\"641.leela\",\"stride\":3}")),
                 ParseError);
    EXPECT_THROW(parseSweepSpec(groupSpec(
                     "{\"name\":\"641.leela\",\"args\":[1,2]}")),
                 ParseError);
    EXPECT_THROW(parseSweepSpec(groupSpec(
                     "{\"name\":\"641.leela\",\"seed\":7}")),
                 ParseError);
    EXPECT_THROW(parseSweepSpec(groupSpec(
                     "{\"set\":\"catalog\",\"params\":{}}")),
                 ParseError);
    // Field order must not matter: aux field before the kind key.
    EXPECT_THROW(parseSweepSpec(groupSpec(
                     "{\"stride\":3,\"name\":\"641.leela\"}")),
                 ParseError);
    // The legitimate pairings still parse.
    EXPECT_NO_THROW(parseSweepSpec(groupSpec(
        "{\"set\":\"catalog\",\"stride\":3}")));
    EXPECT_NO_THROW(parseSweepSpec(groupSpec(
        "{\"synthetic\":\"s\",\"seed\":7,\"params\":{}}")));
}

TEST(SweepSpecValidate, ContradictorySamplingRejected)
{
    SweepSpec spec = bench::fig3Spec(smallWindow());
    spec.run.samplePeriodInsts = 1000; // period without a length
    EXPECT_THROW(validateSweepSpec(spec), ConfigError);

    spec.run.sampleLengthInsts = 2000; // length exceeds period
    EXPECT_THROW(validateSweepSpec(spec), ConfigError);

    spec.run.sampleLengthInsts = 500;
    spec.run.sampleWarmupInsts = 600; // warmup+length exceed period
    EXPECT_THROW(validateSweepSpec(spec), ConfigError);

    spec.run.sampleWarmupInsts = 100;
    EXPECT_NO_THROW(validateSweepSpec(spec));
}

TEST(SweepSpecValidate, EmptyAndUnknownPiecesRejected)
{
    SweepSpec empty;
    EXPECT_THROW(validateSweepSpec(empty), ConfigError);

    SweepSpec spec = bench::fig3Spec(smallWindow());
    spec.groups[0].workloads[0] = WorkloadSelector::byName("no.such");
    EXPECT_THROW(validateSweepSpec(spec), ConfigError);

    spec = bench::fig3Spec(smallWindow());
    spec.groups[0].configs[0].setU64("no_such_knob", 1);
    EXPECT_THROW(validateSweepSpec(spec), ConfigError);

    // "stride": 0 used to be read as 1 and archived that way.
    spec = parseSweepSpec(
        groupSpec("{\"set\":\"catalog\",\"stride\":0}"));
    try {
        validateSweepSpec(spec);
        ADD_FAILURE() << "stride 0 validated";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("stride"), std::string::npos)
            << e.what();
    }
}

namespace {

/** The ConfigError validateSweepSpec raises for @a s, or "" if none. */
std::string
selectorError(const WorkloadSelector &s)
{
    SweepSpec spec = bench::fig3Spec(smallWindow());
    spec.groups[0].workloads[0] = s;
    try {
        validateSweepSpec(spec);
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

} // namespace

// Bad micro arguments used to abort in the generator (bad_alloc) or
// build something other than asked (2.5 instructions -> 2; a taken
// probability above 1). The validator rejects each one, naming the
// generator, before any program is built.
TEST(SweepSpecValidate, BadMicroArgumentsRejected)
{
    const char *loop = "random_branch_loop";
    const std::vector<WorkloadSelector> bad = {
        WorkloadSelector::micro(loop, {-1, 0.5}),
        WorkloadSelector::micro(loop, {2.5, 0.5}),
        WorkloadSelector::micro(loop, {1e30, 0.5}),
        WorkloadSelector::micro(loop, {349525, 0.5}),
        WorkloadSelector::micro(loop, {8, 1.5}),
        WorkloadSelector::micro(loop, {8, -0.25}),
        WorkloadSelector::micro(loop, {8}),
        WorkloadSelector::micro("taken_chain", {4, 6}),
    };
    for (const WorkloadSelector &s : bad) {
        const std::string err = selectorError(s);
        EXPECT_NE(err.find(s.name), std::string::npos)
            << s.name << " [" << s.args[0] << "]: '" << err << "'";
    }

    // 349524 builds 3 x 349525 instructions, just under the bound.
    for (const WorkloadSelector &s :
         {WorkloadSelector::micro(loop, {8, 1}),
          WorkloadSelector::micro(loop, {0, 0}),
          WorkloadSelector::micro(loop, {349524, 0.5})})
        EXPECT_EQ(selectorError(s), "") << s.args[0];
}

namespace {

/** The ConfigError validateSweepSpec raises for a fig3 spec whose
 *  first config row also sets @a knobs, or "" if none. */
std::string
knobError(FrontendVariant variant,
          std::initializer_list<std::pair<const char *, std::uint64_t>>
              knobs)
{
    SweepSpec spec = bench::fig3Spec(smallWindow());
    ConfigSpec &c = spec.groups[0].configs[0];
    c.variant = variant;
    for (const auto &[key, value] : knobs)
        c.setU64(key, value);
    try {
        validateSweepSpec(spec);
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

/** True when knob @a member's visitKnobs maximum @a max is below its
 *  type's largest value (a latency, the counter width). */
template <typename T>
bool
hasKnobMax(const T &, std::uint64_t max)
{
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>)
        return max < std::numeric_limits<T>::max();
    return false;
}

} // namespace

// Knob values the model cannot run used to kill the process with
// SIGFPE (a zero-sized BTB level or coupled bimodal), panic with an
// InternalError (a zero-sized queue, a BTB assoc that does not divide
// its entries, a counter width outside 1..16), wedge every cell for
// 100k cycles (a fetch width of 0 or above the fetch buffer, a
// latency of 1,000,000) or wrap a Cycle stamp and run as if the
// latency were 0 (a latency of 2^64 - 1). The validator rejects each
// one, naming the knob, before any cell runs.
TEST(SweepSpecValidate, UnrunnableKnobValuesRejected)
{
    struct Bad
    {
        const char *knob;
        std::uint64_t value;
    };
    std::vector<Bad> bad;
    std::size_t bounded = 0;
    // Every knob one below its visitKnobs minimum, every knob with a
    // maximum below its type's one above it and at 2^64 - 1...
    const SimConfig any;
    visitKnobs(any, [&](const char *key, const auto &member,
                        std::uint64_t min, std::uint64_t max) {
        if (min > 0)
            bad.push_back({key, min - 1});
        if (hasKnobMax(member, max)) {
            ++bounded;
            bad.push_back({key, max + 1});
            bad.push_back({key, UINT64_MAX});
        }
    });
    ASSERT_FALSE(bad.empty());
    ASSERT_GT(bounded, 0u);
    // ...and each rule between knobs.
    for (const Bad &b : {Bad{"btb.l0.assoc", 5}, Bad{"btb.l1.assoc", 3},
                         Bad{"btb.l2.assoc", 3}, Bad{"fetch.width", 32}})
        bad.push_back(b);
    for (FrontendVariant v : {FrontendVariant::NoDcf, FrontendVariant::Dcf,
                              FrontendVariant::LElf,
                              FrontendVariant::UElf}) {
        for (const Bad &b : bad) {
            const std::string err = knobError(v, {{b.knob, b.value}});
            EXPECT_NE(err.find(b.knob), std::string::npos)
                << variantName(v) << " " << b.knob << " = " << b.value
                << ": '" << err << "'";
        }
    }
    // A fetch width above the default buffer is fine with a buffer
    // that holds a group.
    EXPECT_EQ(knobError(FrontendVariant::UElf,
                        {{"fetch.width", 32}, {"fetch_buffer_entries", 32}}),
              "");
    // The smallest configs the benches and tests run stay valid.
    EXPECT_EQ(knobError(FrontendVariant::UElf,
                        {{"btb.l0.entries", 1},
                         {"btb.l0.assoc", 0},
                         {"btb.l1.entries", 4},
                         {"btb.l1.assoc", 4},
                         {"btb.l2.entries", 8},
                         {"btb.l2.assoc", 8},
                         {"fetch.width", 16},
                         {"faq_entries", 4},
                         {"divergence.vec_entries", 16},
                         {"coupled.bimodal_entries", 512},
                         {"coupled.bimodal_counter_bits", 1}}),
              "");
}

// Synthetic params that generateCfg cannot build from. Empty or
// 2^32-wide draw ranges killed the process with SIGFPE, an indirect
// call with no targets aborted, and a huge program exhausted memory,
// all while expanding the spec, outside any cell. The validator
// rejects each one, naming the param.
TEST(SweepSpecValidate, SyntheticPreconditionsRejected)
{
    struct Bad
    {
        const char *param;
        void (*edit)(CfgParams &);
    };
    for (const Bad &b : {
             Bad{"num_funcs", [](CfgParams &p) { p.numFuncs = 0; }},
             Bad{"blocks_per_func",
                 [](CfgParams &p) { p.blocksPerFunc = 1; }},
             Bad{"insts_per_block_min",
                 [](CfgParams &p) {
                     p.instsPerBlockMin = 9;
                     p.instsPerBlockMax = 8;
                 }},
             Bad{"insts_per_block_max",
                 [](CfgParams &p) {
                     p.instsPerBlockMin = 0;
                     p.instsPerBlockMax = UINT_MAX;
                 }},
             Bad{"loop_period_min",
                 [](CfgParams &p) {
                     p.loopPeriodMin = 5;
                     p.loopPeriodMax = 4;
                 }},
             Bad{"loop_period_max",
                 [](CfgParams &p) {
                     p.loopPeriodMin = 0;
                     p.loopPeriodMax = UINT_MAX;
                 }},
             Bad{"pattern_len_min",
                 [](CfgParams &p) {
                     p.patternLenMin = 9;
                     p.patternLenMax = 8;
                 }},
             Bad{"indirect_fanout",
                 [](CfgParams &p) {
                     p.indirectFanout = 0;
                     p.indirectCallFrac = 1;
                     p.callBlockProb = 1;
                 }},
             Bad{"num_funcs", [](CfgParams &p) { p.numFuncs = UINT_MAX; }},
             Bad{"blocks_per_func",
                 [](CfgParams &p) { p.blocksPerFunc = UINT_MAX; }},
             Bad{"indirect_fanout",
                 [](CfgParams &p) { p.indirectFanout = UINT_MAX; }}}) {
        CfgParams p;
        b.edit(p);
        const std::string err =
            selectorError(WorkloadSelector::synthetic("synth", p, 1));
        EXPECT_NE(err.find("synth"), std::string::npos) << err;
        EXPECT_NE(err.find(b.param), std::string::npos) << err;
    }
    EXPECT_EQ(selectorError(WorkloadSelector::synthetic("synth", {}, 1)),
              "");
    // The largest program a bench builds stays valid.
    const SweepSpec server = bench::serverCapacitySpec(smallWindow());
    for (const WorkloadSelector &s : server.groups[0].workloads)
        EXPECT_EQ(selectorError(s), "") << s.params.numFuncs;
}

// A count past UINT_MAX used to wrap silently: "stride":2^32 selected
// the whole set, "jobs":2^32+1 ran one thread.
TEST(SweepSpecJson, CountsPastUintMaxRejected)
{
    const std::string dcf = "{\"variant\":\"DCF\"}";
    for (const std::string &bad :
         {groupSpec("{\"name\":\"641.leela\"}", dcf,
                    "\"jobs\":4294967297,"),
          groupSpec("{\"set\":\"catalog\",\"stride\":4294967296}"),
          groupSpec("{\"synthetic\":\"s\",\"params\":"
                    "{\"num_funcs\":4294967297}}")}) {
        try {
            parseSweepSpec(bad);
            ADD_FAILURE() << "parsed: " << bad;
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("at most"),
                      std::string::npos)
                << e.what();
        }
    }
    const SweepSpec edge = parseSweepSpec(
        groupSpec("{\"set\":\"catalog\",\"stride\":4294967295}", dcf,
                  "\"jobs\":4294967295,"));
    EXPECT_EQ(edge.jobs, UINT_MAX);
    EXPECT_EQ(edge.groups[0].workloads[0].stride, UINT_MAX);
}

// ---------------------------------------------------------------------
// Knob registry
// ---------------------------------------------------------------------

// Every key visitKnobs lists takes a value of its type through
// applySimKnob, and that value lands in the key's member and nowhere
// else. A knob added to the list is covered here without an edit.
TEST(SimKnobs, RegistryAppliesOverrides)
{
    const SimConfig base = makeConfig(FrontendVariant::Dcf);
    SimConfig cfg = base;
    std::set<std::string> keys;
    visitKnobs(cfg, [&](const char *key, auto &member, std::uint64_t,
                        std::uint64_t) {
        EXPECT_TRUE(keys.insert(key).second) << "duplicate key " << key;
        using T = std::decay_t<decltype(member)>;
        const T before = member;
        T want;
        SpecValue v;
        if constexpr (std::is_same_v<T, bool>) {
            want = !before;
            v = SpecValue::ofFlag(want);
        } else if constexpr (std::is_same_v<T, PayloadPolicy>) {
            want = PayloadPolicy::Ideal;
            v = SpecValue::ofText("ideal");
        } else {
            want = before + 7;
            v = SpecValue::ofU64(want);
        }
        ASSERT_NE(before, want) << key;
        applySimKnob(cfg, key, v);
        EXPECT_EQ(member, want) << key;
        EXPECT_NE(configFingerprint(cfg), configFingerprint(base)) << key;
        member = before;
        EXPECT_EQ(configFingerprint(cfg), configFingerprint(base)) << key;
    });
}

TEST(SimKnobs, UnknownKeyAndWrongTypeThrow)
{
    SimConfig cfg = makeConfig(FrontendVariant::Dcf);
    // Unknown keys, among them the retired coupled.cond_kind and
    // decode_btb_fill, are refused by name.
    for (const char *key : {"nope", "coupled.cond_kind", "decode_btb_fill"}) {
        for (const SpecValue &v :
             {SpecValue::ofU64(1), SpecValue::ofFlag(false),
              SpecValue::ofText("bimodal")}) {
            try {
                applySimKnob(cfg, key, v);
                ADD_FAILURE() << "applied " << key;
            } catch (const ConfigError &e) {
                EXPECT_NE(std::string(e.what()).find(key),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    EXPECT_THROW(
        applySimKnob(cfg, "bp1_to_fe", SpecValue::ofText("deep")),
        ConfigError);
    EXPECT_THROW(applySimKnob(cfg, "cond_elf_require_saturation",
                              SpecValue::ofU64(1)),
                 ConfigError);
    EXPECT_THROW(
        applySimKnob(cfg, "payload_policy",
                     SpecValue::ofText("no_such_policy")),
        ConfigError);
    // No knob takes a fraction or a negative number: the reader
    // refuses one, naming the knob.
    for (const auto &[knob, value] :
         {std::pair<const char *, const char *>{"bp1_to_fe", "2.5"},
          {"faq_entries", "-4"}}) {
        const std::string text = groupSpec(
            "{\"name\":\"641.leela\"}",
            "{\"variant\":\"DCF\",\"overrides\":{\"" +
                std::string(knob) + "\":" + value + "}}");
        try {
            parseSweepSpec(text);
            ADD_FAILURE() << "parsed: " << text;
        } catch (const ParseError &e) {
            EXPECT_NE(std::string(e.what()).find(knob), std::string::npos)
                << e.what();
        }
    }
}

// ---------------------------------------------------------------------
// Spec-vs-legacy grid identity, one case per migrated bench. Each
// "legacy" grid is the verbatim nested loop the bench ran before the
// migration.
// ---------------------------------------------------------------------

TEST(SpecVsLegacy, Fig3)
{
    const RunOptions o = smallWindow();
    static Program p = microRandomBranchLoop(8, 0.5);
    std::vector<SweepJob> legacy;
    for (FrontendVariant v :
         {FrontendVariant::NoDcf, FrontendVariant::Dcf,
          FrontendVariant::LElf, FrontendVariant::UElf})
        legacy.push_back(makeVariantJob(p, v, o));
    expectSameGrid(legacy, expandSweep(bench::fig3Spec(o)).jobs);
}

TEST(SpecVsLegacy, Fig6)
{
    const RunOptions o = smallWindow();
    static std::deque<Program> programs;
    programs.clear();
    std::vector<SweepJob> legacy;
    for (const std::string &name : elfRelevantWorkloads()) {
        programs.push_back(buildWorkload(*findWorkload(name)));
        for (FrontendVariant v :
             {FrontendVariant::Dcf, FrontendVariant::NoDcf})
            legacy.push_back(makeVariantJob(programs.back(), v, o));
    }
    expectSameGrid(legacy, expandSweep(bench::fig6Spec(o)).jobs);
}

TEST(SpecVsLegacy, Fig7)
{
    const RunOptions o = smallWindow();
    static std::deque<Program> programs;
    programs.clear();
    std::vector<SweepJob> legacy;
    for (const std::string &name : elfRelevantWorkloads()) {
        programs.push_back(buildWorkload(*findWorkload(name)));
        for (FrontendVariant v :
             {FrontendVariant::Dcf, FrontendVariant::LElf,
              FrontendVariant::RetElf, FrontendVariant::IndElf,
              FrontendVariant::CondElf})
            legacy.push_back(makeVariantJob(programs.back(), v, o));
    }
    expectSameGrid(legacy, expandSweep(bench::fig7Spec(o)).jobs);
}

TEST(SpecVsLegacy, Fig8)
{
    const RunOptions o = smallWindow();
    static std::deque<Program> programs;
    programs.clear();
    std::vector<SweepJob> legacy;
    for (const std::string &name : elfRelevantWorkloads()) {
        programs.push_back(buildWorkload(*findWorkload(name)));
        for (FrontendVariant v :
             {FrontendVariant::Dcf, FrontendVariant::LElf,
              FrontendVariant::UElf})
            legacy.push_back(makeVariantJob(programs.back(), v, o));
    }
    expectSameGrid(legacy, expandSweep(bench::fig8Spec(o)).jobs);
}

TEST(SpecVsLegacy, Fig9)
{
    const RunOptions o = smallWindow();
    static std::deque<Program> programs;
    programs.clear();
    std::vector<SweepJob> legacy;
    for (const WorkloadSpec &w : workloadCatalog()) {
        programs.push_back(buildWorkload(w));
        for (FrontendVariant v :
             {FrontendVariant::Dcf, FrontendVariant::NoDcf,
              FrontendVariant::LElf, FrontendVariant::UElf})
            legacy.push_back(makeVariantJob(programs.back(), v, o));
    }
    expectSameGrid(legacy, expandSweep(bench::fig9Spec(o)).jobs);
}

TEST(SpecVsLegacy, AblationDcf)
{
    const RunOptions o = smallWindow();
    const SimConfig base = makeConfig(FrontendVariant::Dcf);
    std::vector<SimConfig> rows;
    rows.push_back(base);
    for (unsigned depth : {0u, 1u, 5u, 8u}) {
        SimConfig c = base;
        c.bp1ToFe = depth;
        rows.push_back(c);
    }
    {
        SimConfig c = base;
        c.btb.l0.entries = 1;
        c.btb.l0.assoc = 0;
        rows.push_back(c);
    }
    {
        SimConfig c = base;
        c.btb.l0.entries = 96;
        c.btb.l0.assoc = 0;
        rows.push_back(c);
    }
    {
        SimConfig c = base;
        c.maxInstPrefetch = 0;
        rows.push_back(c);
    }
    {
        SimConfig c = base;
        c.faqEntries = 4;
        rows.push_back(c);
    }

    static std::deque<Program> programs;
    programs.clear();
    std::vector<SweepJob> legacy;
    for (const char *name : {"641.leela", "srv1.subtest_1"}) {
        programs.push_back(buildWorkload(*findWorkload(name)));
        for (const SimConfig &cfg : rows) {
            SweepJob j;
            j.program = &programs.back();
            j.cfg = cfg;
            j.opts = o;
            legacy.push_back(j);
        }
    }
    expectSameGrid(legacy,
                   expandSweep(bench::ablationDcfSpec(o)).jobs);
}

TEST(SpecVsLegacy, AblationElf)
{
    const RunOptions o = smallWindow();
    const SimConfig base = makeConfig(FrontendVariant::UElf);
    std::vector<SimConfig> rows;
    rows.push_back(base);
    rows.push_back(makeConfig(FrontendVariant::Dcf));
    {
        SimConfig c = base;
        c.payloadPolicy = PayloadPolicy::RobHead;
        rows.push_back(c);
    }
    {
        SimConfig c = base;
        c.payloadPolicy = PayloadPolicy::Ideal;
        rows.push_back(c);
    }
    {
        SimConfig c = base;
        c.condElfRequireSaturation = false;
        rows.push_back(c);
    }
    {
        SimConfig c = base;
        c.coupledPreds.bimodal.entries = 8192;
        rows.push_back(c);
    }
    {
        SimConfig c = base;
        c.coupledPreds.bimodal.entries = 512;
        rows.push_back(c);
    }
    {
        SimConfig c = base;
        c.divergence.vecEntries = 16;
        c.divergence.targetEntries = 4;
        rows.push_back(c);
    }
    {
        SimConfig c = base;
        c.faqEntries = 8;
        rows.push_back(c);
    }
    {
        SimConfig c = base;
        c.faqEntries = 128;
        rows.push_back(c);
    }

    static Program p = buildWorkload(*findWorkload("641.leela"));
    std::vector<SweepJob> legacy;
    for (const SimConfig &cfg : rows) {
        SweepJob j;
        j.program = &p;
        j.cfg = cfg;
        j.opts = o;
        legacy.push_back(j);
    }
    expectSameGrid(legacy,
                   expandSweep(bench::ablationElfSpec(o)).jobs);
}

TEST(SpecVsLegacy, ThroughputStridedAndSampled)
{
    RunOptions o = smallWindow();
    const unsigned stride = 3;
    const bool quick = true;

    static std::deque<Program> programs;
    programs.clear();
    std::vector<SweepJob> legacy;
    unsigned wi = 0;
    for (const WorkloadSpec &w : workloadCatalog()) {
        if (wi++ % stride != 0)
            continue;
        programs.push_back(buildWorkload(w));
        for (FrontendVariant v :
             {FrontendVariant::NoDcf, FrontendVariant::Dcf,
              FrontendVariant::UElf})
            legacy.push_back(makeVariantJob(programs.back(), v, o));
    }
    RunOptions so;
    so.warmupInsts = 0;
    so.measureInsts = quick ? 2500000 : 10000000;
    so.samplePeriodInsts = 1000000;
    so.sampleLengthInsts = 5000;
    so.sampleWarmupInsts = 1000;
    for (const char *name : {"605.mcf", "srv2.subtest_3"}) {
        programs.push_back(buildWorkload(*findWorkload(name)));
        legacy.push_back(makeVariantJob(programs.back(),
                                        FrontendVariant::UElf, so));
    }
    expectSameGrid(
        legacy,
        expandSweep(bench::throughputSpec(o, stride, true, quick))
            .jobs);
}

TEST(SpecVsLegacy, ServerCapacity)
{
    const RunOptions o = smallWindow();
    static std::deque<Program> programs;
    programs.clear();
    std::vector<SweepJob> legacy;
    for (unsigned funcs : {64u, 256u, 768u, 1536u}) {
        CfgParams p;
        p.numFuncs = funcs;
        p.blocksPerFunc = 5;
        p.callBlockProb = 0.08;
        p.indirectCallFrac = 0.15;
        p.callSkew = 0.05;
        p.fracLoopBranches = 0.42;
        p.fracPatternBranches = 0.40;
        p.loopPeriodMin = 2;
        p.loopPeriodMax = 6;
        p.dataFootprint = 256 << 10;
        programs.push_back(generateCfg(p, 0x5e41, "server_sweep"));
        for (FrontendVariant v :
             {FrontendVariant::Dcf, FrontendVariant::NoDcf,
              FrontendVariant::LElf, FrontendVariant::UElf})
            legacy.push_back(makeVariantJob(programs.back(), v, o));
    }
    expectSameGrid(legacy,
                   expandSweep(bench::serverCapacitySpec(o)).jobs);
}

// ---------------------------------------------------------------------
// End to end: an expanded spec runs and exports like a legacy grid.
// ---------------------------------------------------------------------

TEST(SweepSpecRun, ExpandedSpecProducesIdenticalResultBytes)
{
    const SweepSpec spec = bench::fig3Spec(smallWindow());
    const ExpandedSweep ex = expandSweep(spec);

    SweepRunner a(1), b(2);
    const std::vector<RunResult> ra = a.run(ex.jobs);

    // Re-expand (fresh programs) and run on a different thread count:
    // the exported bytes must not change.
    const ExpandedSweep ex2 = expandSweep(spec);
    const std::vector<RunResult> rb = b.run(ex2.jobs);

    std::ostringstream ja, jb;
    writeResultsJson(ja, ra);
    writeResultsJson(jb, rb);
    EXPECT_EQ(ja.str(), jb.str());
}

// A knob at its visitKnobs maximum is a value the model can run: each
// bounded knob (every latency, the counter width) alone and all of
// them at once complete a short 641.leela cell on DCF and U-ELF.
TEST(SweepSpecRun, KnobsAtTheirMaximumRun)
{
    std::vector<std::pair<std::string, std::uint64_t>> atMax;
    const SimConfig any;
    visitKnobs(any, [&](const char *key, const auto &member,
                        std::uint64_t, std::uint64_t max) {
        if (hasKnobMax(member, max))
            atMax.emplace_back(key, max);
    });
    ASSERT_FALSE(atMax.empty());

    SweepSpec spec = bench::fig3Spec(smallWindow());
    SweepGroup &g = spec.groups[0];
    g.workloads = {WorkloadSelector::byName("641.leela")};
    g.configs.clear();
    for (FrontendVariant v : {FrontendVariant::Dcf, FrontendVariant::UElf}) {
        ConfigSpec all(v, "all at max");
        for (const auto &[key, max] : atMax) {
            g.configs.push_back(ConfigSpec(v, key).setU64(key, max));
            all.setU64(key, max);
        }
        g.configs.push_back(all);
    }
    const ExpandedSweep ex = expandSweep(spec);
    SweepRunner runner(2);
    const std::vector<RunResult> res = runner.run(ex.jobs);
    ASSERT_EQ(res.size(), 2 * (atMax.size() + 1));
    for (std::size_t i = 0; i < res.size(); ++i) {
        EXPECT_TRUE(res[i].ok())
            << res[i].variant << " " << ex.labels[i] << ": "
            << res[i].error;
        EXPECT_GE(res[i].insts, smallWindow().measureInsts)
            << ex.labels[i];
    }
}
