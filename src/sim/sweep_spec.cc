#include "sim/sweep_spec.hh"

#include <climits>
#include <cmath>
#include <fstream>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/error.hh"
#include "common/export.hh"
#include "workload/catalog.hh"

namespace elfsim {

namespace {

constexpr const char *kSchema = "elfsim-sweepspec-v1";

// --- variant names ----------------------------------------------------

const FrontendVariant kVariants[] = {
    FrontendVariant::NoDcf,  FrontendVariant::Dcf,
    FrontendVariant::LElf,   FrontendVariant::RetElf,
    FrontendVariant::IndElf, FrontendVariant::CondElf,
    FrontendVariant::UElf,
};

// --- CfgParams field enumeration -------------------------------------

/**
 * Visit every generator knob as ("name", member) — the single source
 * of truth for the synthetic selector's "params" object. @a v must
 * accept (const char *, unsigned &), (const char *, double &) and
 * (const char *, std::uint64_t &).
 */
template <typename Self, typename V>
void
visitCfgParams(Self &self, V &&v)
{
    v("num_funcs", self.numFuncs);
    v("blocks_per_func", self.blocksPerFunc);
    v("insts_per_block_min", self.instsPerBlockMin);
    v("insts_per_block_max", self.instsPerBlockMax);
    v("frac_loop_branches", self.fracLoopBranches);
    v("frac_pattern_branches", self.fracPatternBranches);
    v("random_taken_prob", self.randomTakenProb);
    v("loop_period_min", self.loopPeriodMin);
    v("loop_period_max", self.loopPeriodMax);
    v("pattern_len_min", self.patternLenMin);
    v("pattern_len_max", self.patternLenMax);
    v("pattern_bias", self.patternBias);
    v("back_edge_prob", self.backEdgeProb);
    v("call_block_prob", self.callBlockProb);
    v("indirect_call_frac", self.indirectCallFrac);
    v("indirect_fanout", self.indirectFanout);
    v("call_skew", self.callSkew);
    v("recursion_frac", self.recursionFrac);
    v("recursion_depth_period", self.recursionDepthPeriod);
    v("load_frac", self.loadFrac);
    v("store_frac", self.storeFrac);
    v("data_footprint", self.dataFootprint);
    v("chase_frac", self.chaseFrac);
    v("stream_frac", self.streamFrac);
    v("fp_frac", self.fpFrac);
    v("mul_frac", self.mulFrac);
    v("div_frac", self.divFrac);
    v("dep_chain_frac", self.depChainFrac);
}

// --- knob values ------------------------------------------------------

/** Throw the ConfigError for knob @a key, which @a why. */
[[noreturn]] void
badKnob(const char *key, const std::string &why)
{
    throw ConfigError(errorf("knob '%s' %s", key, why.c_str()));
}

/** The spelling of one value of a named knob. */
template <typename E>
struct KnobName
{
    const char *name;
    E value;
};

const KnobName<PayloadPolicy> payloadPolicyNames[] = {
    {"faq_fill", PayloadPolicy::FaqFill},
    {"rob_head", PayloadPolicy::RobHead},
    {"ideal", PayloadPolicy::Ideal},
};

template <typename E, std::size_t N>
E
knobByName(const char *key, const SpecValue &v,
           const KnobName<E> (&names)[N])
{
    if (v.kind != SpecValue::Kind::Text)
        badKnob(key, "expects a string");
    std::string known;
    for (const KnobName<E> &n : names) {
        if (v.s == n.name)
            return n.value;
        known += known.empty() ? "" : ", ";
        known += n.name;
    }
    badKnob(key, "expects one of " + known + " (got '" + v.s + "')");
}

/** Store @a v in knob @a key's member @a m; throw unless @a v has the
 *  member's type. */
void
setKnob(const char *key, std::uint64_t &m, const SpecValue &v)
{
    if (v.kind != SpecValue::Kind::U64)
        badKnob(key, "expects a non-negative integer");
    m = v.u;
}

void
setKnob(const char *key, unsigned &m, const SpecValue &v)
{
    std::uint64_t x = 0;
    setKnob(key, x, v);
    if (x > UINT_MAX)
        badKnob(key, errorf("must be at most %u", UINT_MAX));
    m = static_cast<unsigned>(x);
}

void
setKnob(const char *key, bool &m, const SpecValue &v)
{
    if (v.kind != SpecValue::Kind::Flag)
        badKnob(key, "expects true/false");
    m = v.b;
}

void
setKnob(const char *key, PayloadPolicy &m, const SpecValue &v)
{
    m = knobByName(key, v, payloadPolicyNames);
}

/**
 * The value rules of a spec's config row: every knob inside its
 * visitKnobs range, plus the rules between knobs. A value outside
 * them would divide by zero, trip an internal assertion, wrap a Cycle
 * stamp or wedge every cell.
 */
void
checkSpecConfig(const SimConfig &cfg)
{
    visitKnobs(cfg, [](const char *key, const auto &value,
                       std::uint64_t min, std::uint64_t max) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
            if (value < min)
                badKnob(key, "must be at least " + std::to_string(min));
            if (value > max)
                badKnob(key, "must be at most " + std::to_string(max));
        }
    });
    const std::pair<const char *, const BtbLevelParams *> btbLevels[] = {
        {"btb.l0.assoc", &cfg.btb.l0},
        {"btb.l1.assoc", &cfg.btb.l1},
        {"btb.l2.assoc", &cfg.btb.l2}};
    for (const auto &[key, btb] : btbLevels) {
        if (btb->assoc != 0 && btb->entries % btb->assoc != 0)
            badKnob(key, "must divide the level's entries (or be 0: "
                         "fully associative)");
    }
    // Fetch waits for a whole group of free fetch-buffer slots.
    if (cfg.fetch.width > cfg.fetchBufferEntries)
        badKnob("fetch.width", "must not exceed fetch_buffer_entries");
}

} // namespace

bool
parseVariantName(std::string_view name, FrontendVariant &out)
{
    for (FrontendVariant v : kVariants) {
        if (name == variantName(v)) {
            out = v;
            return true;
        }
    }
    return false;
}

void
applySimKnob(SimConfig &cfg, const std::string &key, const SpecValue &v)
{
    bool known = false;
    visitKnobs(cfg, [&](const char *name, auto &member, std::uint64_t,
                        std::uint64_t) {
        if (!known && key == name) {
            setKnob(name, member, v);
            known = true;
        }
    });
    if (!known)
        throw ConfigError(
            errorf("unknown SimConfig knob '%s'", key.c_str()));
}

SimConfig
makeSpecConfig(const ConfigSpec &c)
{
    SimConfig cfg = makeConfig(c.variant);
    for (const auto &[key, value] : c.overrides)
        applySimKnob(cfg, key, value);
    checkSpecConfig(cfg);
    return cfg;
}

namespace {

/** validateRunOptions, naming where in the spec the options sit. */
void
checkRunOptions(const RunOptions &o, const std::string &where)
{
    try {
        validateRunOptions(o);
    } catch (const ConfigError &e) {
        throw ConfigError(where + ": " + e.what());
    }
}

/**
 * Largest program a selector may build, in static instructions (a
 * synthetic program's indirect-call targets count too): 4 MiB of
 * code, 16x the largest catalog program and past every BTB and
 * I-cache level but the L3.
 */
constexpr double maxSelectorInsts = 1 << 20;

/** The one micro-program generator a spec may name: Figure 3's
 *  random-branch loop, three blocks of block_len + 1 instructions. */
constexpr const char *kMicro = "random_branch_loop";

/** A micro selector names kMicro and gives it a whole block_len and a
 *  taken_prob in [0, 1] that build at most maxSelectorInsts
 *  instructions. */
void
checkMicro(const WorkloadSelector &s)
{
    if (s.name != kMicro)
        throw ConfigError(errorf("unknown micro generator '%s' (%s)",
                                 s.name.c_str(), kMicro));
    if (s.args.size() != 2)
        throw ConfigError(errorf("micro '%s' expects 2 args (block_len, "
                                 "taken_prob)", kMicro));
    const double len = s.args[0], prob = s.args[1];
    if (!(len >= 0 && len == std::floor(len)))
        throw ConfigError(errorf("micro '%s': block_len must be a whole "
                                 "number (got %g)", kMicro, len));
    if (!(prob >= 0 && prob <= 1))
        throw ConfigError(errorf("micro '%s': taken_prob must lie in "
                                 "[0, 1] (got %g)", kMicro, prob));
    const double insts = 3 * (len + 1);
    if (insts > maxSelectorInsts)
        throw ConfigError(errorf(
            "micro '%s' would build %g static instructions (at most "
            "%.0f)", kMicro, insts, maxSelectorInsts));
}

/** generateCfg's preconditions, and maxSelectorInsts, for a synthetic
 *  selector. */
void
checkSynthetic(const WorkloadSelector &s)
{
    if (s.name.empty())
        throw ConfigError("synthetic workload needs a non-empty name");
    const auto bad = [&s](const std::string &why) {
        throw ConfigError(
            errorf("synthetic '%s': %s", s.name.c_str(), why.c_str()));
    };
    const CfgParams &p = s.params;
    if (p.numFuncs < 1)
        bad("num_funcs must be at least 1");
    if (p.blocksPerFunc < 2)
        bad("blocks_per_func must be at least 2");
    if (p.indirectFanout < 1)
        bad("indirect_fanout must be at least 1");
    // generateCfg draws from each range with Rng::below(max - min + 1),
    // which divides by zero when that count is 0.
    const std::tuple<const char *, unsigned, const char *, unsigned>
        ranges[] = {
            {"insts_per_block_min", p.instsPerBlockMin,
             "insts_per_block_max", p.instsPerBlockMax},
            {"loop_period_min", p.loopPeriodMin, "loop_period_max",
             p.loopPeriodMax},
            {"pattern_len_min", p.patternLenMin, "pattern_len_max",
             p.patternLenMax}};
    for (const auto &[lo, min, hi, max] : ranges) {
        if (min > max)
            bad(errorf("%s (%u) exceeds %s (%u)", lo, min, hi, max));
        if (max - min == UINT_MAX)
            bad(errorf("%s..%s must not span all 2^32 values", lo, hi));
    }
    // A function has at most blocks_per_func + 7 blocks (segments of
    // five, a recursion guard, an epilogue and its share of main's
    // call ring); a block at most six instructions past its body and,
    // ending in an indirect call, indirect_fanout targets.
    const double size = double(p.numFuncs) *
                        (double(p.blocksPerFunc) + 7) *
                        (double(p.instsPerBlockMax) + 6 +
                         double(p.indirectFanout));
    if (size > maxSelectorInsts)
        bad(errorf("num_funcs x (blocks_per_func + 7) x "
                   "(insts_per_block_max + 6 + indirect_fanout) is %g "
                   "(at most %.0f)", size, maxSelectorInsts));
}

/** Everything buildSelector needs of a selector, checked without
 *  building its programs. */
void
checkSelector(const WorkloadSelector &s)
{
    switch (s.kind) {
      case WorkloadSelector::Kind::Name:
        if (!findWorkload(s.name))
            throw ConfigError(errorf("unknown workload '%s'",
                                     s.name.c_str()));
        break;
      case WorkloadSelector::Kind::Set:
        if (s.name != "catalog" && s.name != "elf_relevant")
            throw ConfigError(errorf(
                "unknown workload set '%s' (catalog, elf_relevant)",
                s.name.c_str()));
        if (s.stride == 0)
            throw ConfigError(errorf(
                "workload set '%s': stride must be at least 1",
                s.name.c_str()));
        break;
      case WorkloadSelector::Kind::Micro:
        checkMicro(s);
        break;
      case WorkloadSelector::Kind::Synthetic:
        checkSynthetic(s);
        break;
    }
}

/** Resolve a selector checkSelector has accepted to the programs it
 *  names (build order is the catalog/declaration order, matching the
 *  legacy bench loops). */
std::vector<Program>
buildSelector(const WorkloadSelector &s)
{
    std::vector<Program> out;
    switch (s.kind) {
      case WorkloadSelector::Kind::Name:
        out.push_back(buildWorkload(*findWorkload(s.name)));
        break;
      case WorkloadSelector::Kind::Set: {
        unsigned i = 0;
        if (s.name == "catalog") {
            for (const WorkloadSpec &w : workloadCatalog())
                if (i++ % s.stride == 0)
                    out.push_back(buildWorkload(w));
        } else {
            for (const std::string &n : elfRelevantWorkloads())
                if (i++ % s.stride == 0)
                    out.push_back(buildWorkload(*findWorkload(n)));
        }
        break;
      }
      case WorkloadSelector::Kind::Micro:
        out.push_back(microRandomBranchLoop(unsigned(s.args[0]),
                                            s.args[1]));
        break;
      case WorkloadSelector::Kind::Synthetic:
        out.push_back(generateCfg(s.params, s.seed, s.name));
        break;
    }
    return out;
}

} // namespace

void
validateSweepSpec(const SweepSpec &spec)
{
    if (spec.groups.empty())
        throw ConfigError("spec has no groups (nothing to sweep)");
    checkRunOptions(spec.run, "run");
    for (std::size_t gi = 0; gi < spec.groups.size(); ++gi) {
        const SweepGroup &g = spec.groups[gi];
        const std::string where =
            "groups[" + std::to_string(gi) + "]";
        if (g.workloads.empty())
            throw ConfigError(
                errorf("%s has no workloads", where.c_str()));
        if (g.configs.empty())
            throw ConfigError(
                errorf("%s has no configs", where.c_str()));
        if (g.hasRun)
            checkRunOptions(g.run, where + ".run");
        for (const WorkloadSelector &s : g.workloads)
            checkSelector(s);
        // Config rows fail fast too: build each one once so an
        // unknown knob or a bad value is rejected before any
        // simulation starts.
        for (const ConfigSpec &c : g.configs)
            (void)makeSpecConfig(c);
    }
}

ExpandedSweep
expandSweep(const SweepSpec &spec)
{
    validateSweepSpec(spec);
    ExpandedSweep ex;
    for (const SweepGroup &g : spec.groups) {
        const RunOptions &opts = g.hasRun ? g.run : spec.run;
        // Workload-major, config-minor: the nested loop every legacy
        // bench ran, so submission indices are unchanged.
        for (const WorkloadSelector &s : g.workloads) {
            for (Program &p : buildSelector(s)) {
                ex.programs.push_back(std::move(p));
                const Program &prog = ex.programs.back();
                for (const ConfigSpec &c : g.configs) {
                    SweepJob j;
                    j.program = &prog;
                    j.cfg = makeSpecConfig(c);
                    j.opts = opts;
                    ex.jobs.push_back(std::move(j));
                    ex.labels.push_back(c.label);
                }
            }
        }
    }
    return ex;
}

// --- JSON parse -------------------------------------------------------

namespace {

std::uint64_t
numberU64(const json::Value &v, const std::string &key)
{
    try {
        return v.asU64();
    } catch (const ParseError &) {
        throw ParseError(errorf(
            "spec field '%s' must be a non-negative integer",
            key.c_str()));
    }
}

/** A count for an unsigned field: past UINT_MAX it would wrap to a
 *  small value, so it is rejected. */
unsigned
numberUnsigned(const json::Value &v, const std::string &key)
{
    const std::uint64_t n = numberU64(v, key);
    if (n > UINT_MAX)
        throw ConfigError(errorf(
            "spec field '%s' must be at most %u (got %llu)",
            key.c_str(), UINT_MAX, static_cast<unsigned long long>(n)));
    return static_cast<unsigned>(n);
}

/** Reject any member not consumed by the dispatcher: a typo'd field
 *  must never be silently ignored. */
template <typename Fn>
void
forEachMember(const json::Value &obj, const char *what, Fn &&fn)
{
    for (const auto &[key, value] : obj.members()) {
        if (!fn(key, value))
            throw ParseError(errorf("unknown %s field '%s'", what,
                                    key.c_str()));
    }
}

RunOptions
parseRunOptions(const json::Value &v)
{
    RunOptions o;
    forEachMember(v, "run", [&](const std::string &k,
                                const json::Value &val) {
        if (k == "warmup_insts")
            o.warmupInsts = numberU64(val, k);
        else if (k == "measure_insts")
            o.measureInsts = numberU64(val, k);
        else if (k == "interval_insts") {
            // Interval capture was removed; the 0 that every archived
            // --dump-spec wrote still parses.
            if (val.kind() != json::Value::Kind::Number ||
                val.asDouble() != 0)
                throw ConfigError("run.interval_insts must be 0: "
                                  "interval capture was removed and "
                                  "only its old default still parses");
        } else if (k == "sample_period_insts")
            o.samplePeriodInsts = numberU64(val, k);
        else if (k == "sample_length_insts")
            o.sampleLengthInsts = numberU64(val, k);
        else if (k == "sample_warmup_insts")
            o.sampleWarmupInsts = numberU64(val, k);
        else
            return false;
        return true;
    });
    return o;
}

/**
 * An archived spec's "policy" block. Sweep policies were removed; a
 * block holding only their old defaults (what --dump-spec wrote when
 * no policy flag was given) still parses. Any other value throws a
 * ConfigError naming the field.
 */
void
checkRetiredPolicy(const json::Value &v)
{
    using Kind = json::Value::Kind;
    forEachMember(v, "policy", [](const std::string &k,
                                  const json::Value &val) {
        const char *want;
        bool ok;
        if (k == "keep_going") {
            want = "true";
            ok = val.kind() == Kind::Bool && val.asBool();
        } else if (k == "resume") {
            want = "false";
            ok = val.kind() == Kind::Bool && !val.asBool();
        } else if (k == "deadline_seconds" || k == "stall_seconds" ||
                   k == "max_retries") {
            want = "0";
            ok = val.kind() == Kind::Number && val.asDouble() == 0;
        } else if (k == "manifest_path") {
            want = "\"\"";
            ok = val.kind() == Kind::String && val.asString().empty();
        } else {
            return false;
        }
        if (!ok)
            throw ConfigError(errorf(
                "policy.%s must be %s: sweep policies were removed "
                "and only their old defaults still parse",
                k.c_str(), want));
        return true;
    });
}

CfgParams
parseCfgParams(const json::Value &v)
{
    CfgParams p;
    forEachMember(v, "params", [&](const std::string &k,
                                   const json::Value &val) {
        bool matched = false;
        visitCfgParams(p, [&](const char *name, auto &member) {
            if (matched || k != name)
                return;
            matched = true;
            using T = std::decay_t<decltype(member)>;
            if constexpr (std::is_floating_point_v<T>)
                member = val.asDouble();
            else if constexpr (std::is_same_v<T, std::uint64_t>)
                member = numberU64(val, k);
            else
                member = numberUnsigned(val, k);
        });
        return matched;
    });
    return p;
}

WorkloadSelector
parseSelector(const json::Value &v)
{
    WorkloadSelector s;
    bool kindSeen = false;
    const auto setKind = [&](WorkloadSelector::Kind k,
                             const std::string &name) {
        if (kindSeen)
            throw ParseError(
                "workload selector names more than one of "
                "name/set/micro/synthetic");
        kindSeen = true;
        s.kind = k;
        s.name = name;
    };
    bool strideSeen = false, argsSeen = false;
    bool seedSeen = false, paramsSeen = false;
    forEachMember(v, "workload selector",
                  [&](const std::string &k, const json::Value &val) {
        if (k == "name")
            setKind(WorkloadSelector::Kind::Name, val.asString());
        else if (k == "set")
            setKind(WorkloadSelector::Kind::Set, val.asString());
        else if (k == "micro")
            setKind(WorkloadSelector::Kind::Micro, val.asString());
        else if (k == "synthetic")
            setKind(WorkloadSelector::Kind::Synthetic,
                    val.asString());
        else if (k == "stride") {
            s.stride = numberUnsigned(val, k);
            strideSeen = true;
        } else if (k == "args") {
            for (std::size_t i = 0; i < val.size(); ++i)
                s.args.push_back(val[i].asDouble());
            argsSeen = true;
        } else if (k == "seed") {
            s.seed = numberU64(val, k);
            seedSeen = true;
        } else if (k == "params") {
            s.params = parseCfgParams(val);
            paramsSeen = true;
        } else
            return false;
        return true;
    });
    if (!kindSeen)
        throw ParseError("workload selector needs one of "
                         "name/set/micro/synthetic");
    // Auxiliary fields are per-kind; a stray one on the wrong kind is
    // a spec mistake the no-silent-ignore contract must surface
    // (e.g. "stride" on a "name" selector would otherwise be quietly
    // dropped). Checked after the loop because JSON member order may
    // put them before the kind key.
    const auto rejectForeign = [&](bool seen, const char *field,
                                   WorkloadSelector::Kind only,
                                   const char *kindName) {
        if (seen && s.kind != only)
            throw ParseError(errorf(
                "workload selector field \"%s\" only applies to "
                "\"%s\" selectors", field, kindName));
    };
    rejectForeign(strideSeen, "stride", WorkloadSelector::Kind::Set,
                  "set");
    rejectForeign(argsSeen, "args", WorkloadSelector::Kind::Micro,
                  "micro");
    rejectForeign(seedSeen, "seed",
                  WorkloadSelector::Kind::Synthetic, "synthetic");
    rejectForeign(paramsSeen, "params",
                  WorkloadSelector::Kind::Synthetic, "synthetic");
    return s;
}

SpecValue
parseSpecValue(const std::string &key, const json::Value &v)
{
    if (v.kind() == json::Value::Kind::Bool)
        return SpecValue::ofFlag(v.asBool());
    if (v.kind() == json::Value::Kind::String)
        return SpecValue::ofText(v.asString());
    try {
        return SpecValue::ofU64(v.asU64());
    } catch (const ParseError &) {
        // Not a number, or one with a sign, a fraction or past 2^64:
        // no knob takes it.
        throw ParseError(errorf("override '%s' must be a non-negative "
                                "integer, true/false or a string",
                                key.c_str()));
    }
}

ConfigSpec
parseConfig(const json::Value &v)
{
    ConfigSpec c;
    bool variantSeen = false;
    forEachMember(v, "config", [&](const std::string &k,
                                   const json::Value &val) {
        if (k == "variant") {
            if (!parseVariantName(val.asString(), c.variant))
                throw ParseError(errorf(
                    "unknown variant '%s'",
                    val.asString().c_str()));
            variantSeen = true;
        } else if (k == "label")
            c.label = val.asString();
        else if (k == "overrides") {
            for (const auto &[key, ov] : val.members())
                c.overrides.emplace_back(key,
                                         parseSpecValue(key, ov));
        } else
            return false;
        return true;
    });
    if (!variantSeen)
        throw ParseError("config row needs a \"variant\"");
    return c;
}

SweepGroup
parseGroup(const json::Value &v)
{
    SweepGroup g;
    forEachMember(v, "group", [&](const std::string &k,
                                  const json::Value &val) {
        if (k == "workloads") {
            for (std::size_t i = 0; i < val.size(); ++i)
                g.workloads.push_back(parseSelector(val[i]));
        } else if (k == "configs") {
            for (std::size_t i = 0; i < val.size(); ++i)
                g.configs.push_back(parseConfig(val[i]));
        } else if (k == "run") {
            g.hasRun = true;
            g.run = parseRunOptions(val);
        } else
            return false;
        return true;
    });
    return g;
}

} // namespace

SweepSpec
parseSweepSpec(const json::Value &doc)
{
    SweepSpec spec;
    bool schemaSeen = false;
    forEachMember(doc, "spec", [&](const std::string &k,
                                   const json::Value &val) {
        if (k == "schema") {
            if (val.asString() != kSchema)
                throw ParseError(errorf(
                    "expected schema \"%s\", got \"%s\"", kSchema,
                    val.asString().c_str()));
            schemaSeen = true;
        } else if (k == "name")
            spec.name = val.asString();
        else if (k == "jobs")
            spec.jobs = numberUnsigned(val, k);
        else if (k == "base_seed")
            spec.baseSeed = numberU64(val, k);
        else if (k == "run")
            spec.run = parseRunOptions(val);
        else if (k == "policy")
            checkRetiredPolicy(val);
        else if (k == "groups") {
            for (std::size_t i = 0; i < val.size(); ++i)
                spec.groups.push_back(parseGroup(val[i]));
        } else
            return false;
        return true;
    });
    if (!schemaSeen)
        throw ParseError(
            errorf("spec is missing \"schema\": \"%s\"", kSchema));
    return spec;
}

SweepSpec
parseSweepSpec(std::string_view text)
{
    return parseSweepSpec(json::parse(text));
}

SweepSpec
loadSweepSpec(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw IoError(
            errorf("cannot read spec '%s'", path.c_str()));
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseSweepSpec(std::string_view(ss.str()));
}

// --- JSON write -------------------------------------------------------

namespace {

void
writeRunOptions(JsonWriter &w, const RunOptions &o)
{
    w.beginObject();
    w.field("warmup_insts", std::uint64_t(o.warmupInsts));
    w.field("measure_insts", std::uint64_t(o.measureInsts));
    w.field("sample_period_insts",
            std::uint64_t(o.samplePeriodInsts));
    w.field("sample_length_insts",
            std::uint64_t(o.sampleLengthInsts));
    w.field("sample_warmup_insts",
            std::uint64_t(o.sampleWarmupInsts));
    w.endObject();
}

void
writeSelector(JsonWriter &w, const WorkloadSelector &s)
{
    w.beginObject();
    switch (s.kind) {
      case WorkloadSelector::Kind::Name:
        w.field("name", std::string_view(s.name));
        break;
      case WorkloadSelector::Kind::Set:
        w.field("set", std::string_view(s.name));
        w.field("stride", std::uint64_t(s.stride));
        break;
      case WorkloadSelector::Kind::Micro:
        w.field("micro", std::string_view(s.name));
        w.key("args");
        w.beginArray();
        for (double a : s.args)
            w.value(a);
        w.endArray();
        break;
      case WorkloadSelector::Kind::Synthetic: {
        w.field("synthetic", std::string_view(s.name));
        w.field("seed", s.seed);
        w.key("params");
        w.beginObject();
        visitCfgParams(s.params, [&w](const char *name,
                                      const auto &member) {
            using T = std::decay_t<decltype(member)>;
            if constexpr (std::is_floating_point_v<T>)
                w.field(name, double(member));
            else
                w.field(name, std::uint64_t(member));
        });
        w.endObject();
        break;
      }
    }
    w.endObject();
}

void
writeConfig(JsonWriter &w, const ConfigSpec &c)
{
    w.beginObject();
    w.field("variant", variantName(c.variant));
    if (!c.label.empty())
        w.field("label", std::string_view(c.label));
    if (!c.overrides.empty()) {
        w.key("overrides");
        w.beginObject();
        for (const auto &[key, v] : c.overrides) {
            w.key(key);
            switch (v.kind) {
              case SpecValue::Kind::U64:
                w.value(v.u);
                break;
              case SpecValue::Kind::Flag:
                w.value(v.b);
                break;
              case SpecValue::Kind::Text:
                w.value(std::string_view(v.s));
                break;
            }
        }
        w.endObject();
    }
    w.endObject();
}

} // namespace

void
writeSweepSpec(std::ostream &os, const SweepSpec &spec)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", kSchema);
    w.field("name", std::string_view(spec.name));
    w.field("jobs", std::uint64_t(spec.jobs));
    w.field("base_seed", spec.baseSeed);
    w.key("run");
    writeRunOptions(w, spec.run);
    w.key("groups");
    w.beginArray();
    for (const SweepGroup &g : spec.groups) {
        w.beginObject();
        w.key("workloads");
        w.beginArray();
        for (const WorkloadSelector &s : g.workloads)
            writeSelector(w, s);
        w.endArray();
        w.key("configs");
        w.beginArray();
        for (const ConfigSpec &c : g.configs)
            writeConfig(w, c);
        w.endArray();
        if (g.hasRun) {
            w.key("run");
            writeRunOptions(w, g.run);
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
saveSweepSpec(const std::string &path, const SweepSpec &spec)
{
    std::ofstream os(path);
    if (!os)
        throw IoError(
            errorf("cannot open '%s' for writing", path.c_str()));
    writeSweepSpec(os, spec);
    os << '\n';
    if (!os)
        throw IoError(errorf("error writing '%s'", path.c_str()));
}

} // namespace elfsim
