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
#include <sstream>
#include <string>
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
    k += "|i" + std::to_string(j.opts.intervalInsts);
    k += "|p" + std::to_string(j.opts.samplePeriodInsts);
    k += "|l" + std::to_string(j.opts.sampleLengthInsts);
    k += "|u" + std::to_string(j.opts.sampleWarmupInsts);
    k += "|s" + std::to_string(j.cfg.rngSeed);
    k += "|cfg" + std::to_string(configFingerprint(j.cfg));
    return k;
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

TEST(SweepSpecJson, ShorthandWorkloadsConfigsFormOneGroup)
{
    const SweepSpec s = parseSweepSpec(
        "{\"schema\":\"elfsim-sweepspec-v1\","
        "\"workloads\":[{\"name\":\"641.leela\"}],"
        "\"configs\":[{\"variant\":\"DCF\"}]}");
    ASSERT_EQ(s.groups.size(), 1u);
    EXPECT_EQ(s.groups[0].workloads.size(), 1u);
    EXPECT_EQ(s.groups[0].configs.size(), 1u);
}

// ---------------------------------------------------------------------
// Rejection
// ---------------------------------------------------------------------

TEST(SweepSpecJson, UnknownFieldIsAParseError)
{
    EXPECT_THROW(parseSweepSpec(
                     "{\"schema\":\"elfsim-sweepspec-v1\","
                     "\"wrkloads\":[]}"),
                 ParseError);
    EXPECT_THROW(parseSweepSpec(
                     "{\"schema\":\"elfsim-sweepspec-v1\","
                     "\"run\":{\"warmup\":1}}"),
                 ParseError);
    EXPECT_THROW(parseSweepSpec(
                     "{\"schema\":\"elfsim-sweepspec-v1\","
                     "\"policy\":{\"retries\":0}}"),
                 ParseError);
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

TEST(SweepSpecJson, MissingOrWrongSchemaRejected)
{
    EXPECT_THROW(parseSweepSpec("{}"), ParseError);
    EXPECT_THROW(parseSweepSpec("{\"schema\":\"elfsim-results-v2\"}"),
                 ParseError);
}

TEST(SweepSpecJson, KindForeignSelectorFieldsRejected)
{
    const auto spec = [](const char *selector) {
        return std::string("{\"schema\":\"elfsim-sweepspec-v1\","
                           "\"workloads\":[") +
               selector +
               "],\"configs\":[{\"variant\":\"DCF\"}]}";
    };
    // stride is set-only, args micro-only, seed/params
    // synthetic-only; anywhere else they would be silently ignored.
    EXPECT_THROW(parseSweepSpec(spec(
                     "{\"name\":\"641.leela\",\"stride\":3}")),
                 ParseError);
    EXPECT_THROW(parseSweepSpec(spec(
                     "{\"suite\":\"spec2017\",\"stride\":3}")),
                 ParseError);
    EXPECT_THROW(parseSweepSpec(spec(
                     "{\"name\":\"641.leela\",\"args\":[1,2]}")),
                 ParseError);
    EXPECT_THROW(parseSweepSpec(spec(
                     "{\"name\":\"641.leela\",\"seed\":7}")),
                 ParseError);
    EXPECT_THROW(parseSweepSpec(spec(
                     "{\"set\":\"catalog\",\"params\":{}}")),
                 ParseError);
    // Field order must not matter: aux field before the kind key.
    EXPECT_THROW(parseSweepSpec(spec(
                     "{\"stride\":3,\"name\":\"641.leela\"}")),
                 ParseError);
    // The legitimate pairings still parse.
    EXPECT_NO_THROW(parseSweepSpec(spec(
        "{\"set\":\"catalog\",\"stride\":3}")));
    EXPECT_NO_THROW(parseSweepSpec(spec(
        "{\"synthetic\":\"s\",\"seed\":7,\"params\":{}}")));
}

TEST(SweepSpecJson, ShorthandMixedWithGroupsRejected)
{
    EXPECT_THROW(
        parseSweepSpec("{\"schema\":\"elfsim-sweepspec-v1\","
                       "\"groups\":[],"
                       "\"workloads\":[{\"name\":\"641.leela\"}]}"),
        ParseError);
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

// Bad micro arguments used to abort in the generators (bad_alloc, the
// builder's "need at least one block" panic) or build something other
// than asked (2.5 blocks -> 2; a taken probability above 1). The
// validator rejects each one, naming the generator, before any
// program is built.
TEST(SweepSpecValidate, BadMicroArgumentsRejected)
{
    const std::vector<WorkloadSelector> bad = {
        WorkloadSelector::micro("taken_chain", {-1, 8}),
        WorkloadSelector::micro("taken_chain", {4294967295.0, 1}),
        WorkloadSelector::micro("taken_chain", {0, 8}),
        WorkloadSelector::micro("taken_chain", {1e30, 8}),
        WorkloadSelector::micro("taken_chain", {2.5, 8}),
        WorkloadSelector::micro("btb_miss_chain", {1 << 20, 8}),
        WorkloadSelector::micro("sequential_loop", {30, -16}),
        WorkloadSelector::micro("recursion", {8.5, 4}),
        WorkloadSelector::micro("random_branch_loop", {8, 1.5}),
        WorkloadSelector::micro("random_branch_loop", {8, -0.25}),
    };
    for (const WorkloadSelector &s : bad) {
        const std::string err = selectorError(s);
        EXPECT_NE(err.find(s.name), std::string::npos)
            << s.name << " [" << s.args[0] << ", " << s.args[1]
            << "]: '" << err << "'";
    }

    for (const WorkloadSelector &s :
         {WorkloadSelector::micro("taken_chain", {1, 0}),
          WorkloadSelector::micro("btb_miss_chain", {4096, 4}),
          WorkloadSelector::micro("random_branch_loop", {8, 1}),
          WorkloadSelector::micro("recursion", {4294967295.0, 4})})
        EXPECT_EQ(selectorError(s), "") << s.name;
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

} // namespace

// Knob values the model cannot run used to kill the process with
// SIGFPE (a zero-sized BTB level or coupled bimodal), panic with an
// InternalError (a zero-sized queue, a BTB assoc that does not divide
// its entries, a counter width outside 1..16) or wedge every cell for
// 100k cycles (a fetch width of 0 or above the fetch buffer). The
// validator rejects each one, naming the knob, before any cell runs.
TEST(SweepSpecValidate, UnrunnableKnobValuesRejected)
{
    struct Bad
    {
        const char *knob;
        std::uint64_t value;
    };
    for (FrontendVariant v : {FrontendVariant::NoDcf, FrontendVariant::Dcf,
                              FrontendVariant::LElf,
                              FrontendVariant::UElf}) {
        for (const Bad &b : {Bad{"btb.l0.entries", 0},
                             Bad{"btb.l1.entries", 0},
                             Bad{"btb.l2.entries", 0},
                             Bad{"btb.l0.assoc", 5},
                             Bad{"btb.l1.assoc", 3},
                             Bad{"btb.l2.assoc", 3},
                             Bad{"coupled.bimodal_entries", 0},
                             Bad{"coupled.bimodal_counter_bits", 0},
                             Bad{"coupled.bimodal_counter_bits", 17},
                             Bad{"faq_entries", 0},
                             Bad{"checkpoint_entries", 0},
                             Bad{"fetch_buffer_entries", 0},
                             Bad{"divergence.vec_entries", 0},
                             Bad{"fetch.width", 0},
                             Bad{"fetch.width", 32}}) {
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

TEST(SweepSpecValidate, SyntheticPreconditionsRejected)
{
    const auto synth = [](void (*edit)(CfgParams &)) {
        CfgParams p;
        edit(p);
        return WorkloadSelector::synthetic("synth", p, 1);
    };
    for (const WorkloadSelector &s :
         {synth([](CfgParams &p) { p.numFuncs = 0; }),
          synth([](CfgParams &p) { p.blocksPerFunc = 1; }),
          synth([](CfgParams &p) {
              p.instsPerBlockMin = 9;
              p.instsPerBlockMax = 8;
          })}) {
        const std::string err = selectorError(s);
        EXPECT_NE(err.find("synth"), std::string::npos) << err;
    }
    EXPECT_EQ(selectorError(synth([](CfgParams &) {})), "");
}

// A count past UINT_MAX used to wrap silently: "stride":2^32 selected
// the whole set, "jobs":2^32+1 ran one thread.
TEST(SweepSpecJson, CountsPastUintMaxRejected)
{
    const std::string head = "{\"schema\":\"elfsim-sweepspec-v1\",";
    const std::string cfg = "\"configs\":[{\"variant\":\"DCF\"}]}";
    for (const std::string &bad :
         {head + "\"jobs\":4294967297,\"workloads\":[{\"name\":"
                 "\"641.leela\"}]," + cfg,
          head + "\"workloads\":[{\"set\":\"catalog\","
                 "\"stride\":4294967296}]," + cfg,
          head + "\"workloads\":[{\"synthetic\":\"s\",\"params\":"
                 "{\"num_funcs\":4294967297}}]," + cfg}) {
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
        head + "\"jobs\":4294967295,\"workloads\":[{\"set\":"
               "\"catalog\",\"stride\":4294967295}]," + cfg);
    EXPECT_EQ(edge.jobs, UINT_MAX);
    EXPECT_EQ(edge.groups[0].workloads[0].stride, UINT_MAX);
}

// ---------------------------------------------------------------------
// Knob registry
// ---------------------------------------------------------------------

TEST(SimKnobs, RegistryAppliesOverrides)
{
    SimConfig cfg = makeConfig(FrontendVariant::Dcf);
    applySimKnob(cfg, "bp1_to_fe", SpecValue::ofU64(7));
    EXPECT_EQ(cfg.bp1ToFe, 7u);
    applySimKnob(cfg, "faq_entries", SpecValue::ofU64(4));
    EXPECT_EQ(cfg.faqEntries, 4u);
    applySimKnob(cfg, "btb.l0.entries", SpecValue::ofU64(96));
    EXPECT_EQ(cfg.btb.l0.entries, 96u);
    applySimKnob(cfg, "payload_policy", SpecValue::ofText("ideal"));
    EXPECT_EQ(cfg.payloadPolicy, PayloadPolicy::Ideal);
    applySimKnob(cfg, "cond_elf_require_saturation",
                 SpecValue::ofFlag(false));
    EXPECT_FALSE(cfg.condElfRequireSaturation);
    applySimKnob(cfg, "coupled.cond_kind",
                 SpecValue::ofText("gshare"));
    EXPECT_EQ(cfg.coupledPreds.condKind, CoupledCondKind::Gshare);
}

TEST(SimKnobs, UnknownKeyAndWrongTypeThrow)
{
    SimConfig cfg = makeConfig(FrontendVariant::Dcf);
    EXPECT_THROW(applySimKnob(cfg, "nope", SpecValue::ofU64(1)),
                 ConfigError);
    EXPECT_THROW(
        applySimKnob(cfg, "bp1_to_fe", SpecValue::ofText("deep")),
        ConfigError);
    EXPECT_THROW(
        applySimKnob(cfg, "bp1_to_fe", SpecValue::ofReal(2.5)),
        ConfigError);
    EXPECT_THROW(
        applySimKnob(cfg, "payload_policy",
                     SpecValue::ofText("no_such_policy")),
        ConfigError);
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
    {
        SimConfig c = base;
        c.coupledPreds.condKind = CoupledCondKind::Gshare;
        rows.push_back(c);
    }
    {
        SimConfig c = base;
        c.decodeBtbFill = true;
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
