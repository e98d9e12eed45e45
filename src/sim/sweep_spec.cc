#include "sim/sweep_spec.hh"

#include <climits>
#include <cmath>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/error.hh"
#include "common/export.hh"
#include "workload/catalog.hh"

namespace elfsim {

namespace {

constexpr const char *kSchema = "elfsim-sweepspec-v1";

// --- enum names -------------------------------------------------------

const FrontendVariant kVariants[] = {
    FrontendVariant::NoDcf,  FrontendVariant::Dcf,
    FrontendVariant::LElf,   FrontendVariant::RetElf,
    FrontendVariant::IndElf, FrontendVariant::CondElf,
    FrontendVariant::UElf,
};

const char *
payloadPolicyName(PayloadPolicy p)
{
    switch (p) {
      case PayloadPolicy::FaqFill: return "faq_fill";
      case PayloadPolicy::RobHead: return "rob_head";
      case PayloadPolicy::Ideal: return "ideal";
    }
    return "?";
}

bool
parsePayloadPolicy(std::string_view name, PayloadPolicy &out)
{
    for (PayloadPolicy p : {PayloadPolicy::FaqFill,
                            PayloadPolicy::RobHead,
                            PayloadPolicy::Ideal}) {
        if (name == payloadPolicyName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

const char *
condKindName(CoupledCondKind k)
{
    switch (k) {
      case CoupledCondKind::Bimodal: return "bimodal";
      case CoupledCondKind::Gshare: return "gshare";
    }
    return "?";
}

bool
parseCondKind(std::string_view name, CoupledCondKind &out)
{
    for (CoupledCondKind k :
         {CoupledCondKind::Bimodal, CoupledCondKind::Gshare}) {
        if (name == condKindName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

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

// --- typed-value helpers ----------------------------------------------

std::uint64_t
wantU64(const std::string &key, const SpecValue &v)
{
    if (v.kind != SpecValue::Kind::U64)
        throw ConfigError(errorf(
            "knob '%s' expects a non-negative integer", key.c_str()));
    return v.u;
}

unsigned
wantUnsigned(const std::string &key, const SpecValue &v)
{
    const std::uint64_t x = wantU64(key, v);
    if (x > 0xffffffffull)
        throw ConfigError(
            errorf("knob '%s' value out of range", key.c_str()));
    return static_cast<unsigned>(x);
}

bool
wantFlag(const std::string &key, const SpecValue &v)
{
    if (v.kind != SpecValue::Kind::Flag)
        throw ConfigError(
            errorf("knob '%s' expects true/false", key.c_str()));
    return v.b;
}

const std::string &
wantText(const std::string &key, const SpecValue &v)
{
    if (v.kind != SpecValue::Kind::Text)
        throw ConfigError(
            errorf("knob '%s' expects a string", key.c_str()));
    return v.s;
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
    // Pipeline / decoupling geometry.
    if (key == "bp1_to_fe")
        cfg.bp1ToFe = wantU64(key, v);
    else if (key == "faq_entries")
        cfg.faqEntries = wantUnsigned(key, v);
    else if (key == "checkpoint_entries")
        cfg.checkpointEntries = wantUnsigned(key, v);
    else if (key == "fetch_buffer_entries")
        cfg.fetchBufferEntries = wantUnsigned(key, v);
    else if (key == "max_inst_prefetch")
        cfg.maxInstPrefetch = wantUnsigned(key, v);
    else if (key == "fetch.width")
        cfg.fetch.width = wantUnsigned(key, v);
    else if (key == "fetch.fetch_to_decode")
        cfg.fetch.fetchToDecode = wantU64(key, v);
    // BTB hierarchy geometry.
    else if (key == "btb.l0.entries")
        cfg.btb.l0.entries = wantUnsigned(key, v);
    else if (key == "btb.l0.assoc")
        cfg.btb.l0.assoc = wantUnsigned(key, v);
    else if (key == "btb.l0.latency")
        cfg.btb.l0.latency = wantU64(key, v);
    else if (key == "btb.l1.entries")
        cfg.btb.l1.entries = wantUnsigned(key, v);
    else if (key == "btb.l1.assoc")
        cfg.btb.l1.assoc = wantUnsigned(key, v);
    else if (key == "btb.l1.latency")
        cfg.btb.l1.latency = wantU64(key, v);
    else if (key == "btb.l2.entries")
        cfg.btb.l2.entries = wantUnsigned(key, v);
    else if (key == "btb.l2.assoc")
        cfg.btb.l2.assoc = wantUnsigned(key, v);
    else if (key == "btb.l2.latency")
        cfg.btb.l2.latency = wantU64(key, v);
    // ELF machinery.
    else if (key == "divergence.vec_entries")
        cfg.divergence.vecEntries = wantUnsigned(key, v);
    else if (key == "divergence.target_entries")
        cfg.divergence.targetEntries = wantUnsigned(key, v);
    else if (key == "coupled.bimodal_entries")
        cfg.coupledPreds.bimodal.entries = wantUnsigned(key, v);
    else if (key == "coupled.bimodal_counter_bits")
        cfg.coupledPreds.bimodal.counterBits = wantUnsigned(key, v);
    else if (key == "coupled.ras_entries")
        cfg.coupledPreds.rasEntries = wantUnsigned(key, v);
    else if (key == "coupled.cond_kind") {
        if (!parseCondKind(wantText(key, v),
                           cfg.coupledPreds.condKind))
            throw ConfigError(errorf(
                "knob '%s': unknown predictor kind '%s' "
                "(bimodal, gshare)",
                key.c_str(), v.s.c_str()));
    } else if (key == "payload_policy") {
        if (!parsePayloadPolicy(wantText(key, v), cfg.payloadPolicy))
            throw ConfigError(errorf(
                "knob '%s': unknown policy '%s' "
                "(faq_fill, rob_head, ideal)",
                key.c_str(), v.s.c_str()));
    } else if (key == "cond_elf_require_saturation")
        cfg.condElfRequireSaturation = wantFlag(key, v);
    else if (key == "decode_btb_fill")
        cfg.decodeBtbFill = wantFlag(key, v);
    else if (key == "rng_seed")
        cfg.rngSeed = wantU64(key, v);
    else
        throw ConfigError(
            errorf("unknown SimConfig knob '%s'", key.c_str()));
}

namespace {

/** Throw the ConfigError for knob @a key, which is @a why. */
[[noreturn]] void
badKnob(const char *key, const char *why)
{
    throw ConfigError(errorf("knob '%s' %s", key, why));
}

/**
 * The value rules of a spec's config row. applySimKnob checks only
 * each value's type; a value outside these ranges would divide by
 * zero, trip an internal assertion or wedge every cell.
 */
void
checkSpecConfig(const SimConfig &cfg)
{
    const std::pair<const char *, const BtbLevelParams *> btbLevels[] = {
        {"btb.l0", &cfg.btb.l0},
        {"btb.l1", &cfg.btb.l1},
        {"btb.l2", &cfg.btb.l2}};
    for (const auto &[level, btb] : btbLevels) {
        const std::string entries = std::string(level) + ".entries";
        const std::string assoc = std::string(level) + ".assoc";
        if (btb->entries == 0)
            badKnob(entries.c_str(), "must be at least 1");
        if (btb->assoc != 0 && btb->entries % btb->assoc != 0)
            badKnob(assoc.c_str(),
                    "must divide the level's entries (or be 0: fully "
                    "associative)");
    }
    const std::pair<const char *, unsigned> sizes[] = {
        {"faq_entries", cfg.faqEntries},
        {"checkpoint_entries", cfg.checkpointEntries},
        {"fetch_buffer_entries", cfg.fetchBufferEntries},
        {"divergence.vec_entries", cfg.divergence.vecEntries},
        {"coupled.bimodal_entries", cfg.coupledPreds.bimodal.entries},
        {"fetch.width", cfg.fetch.width}};
    for (const auto &[key, value] : sizes) {
        if (value == 0)
            badKnob(key, "must be at least 1");
    }
    const unsigned bits = cfg.coupledPreds.bimodal.counterBits;
    if (bits < 1 || bits > 16)
        badKnob("coupled.bimodal_counter_bits", "must be 1..16");
    // Fetch waits for a whole group of free fetch-buffer slots.
    if (cfg.fetch.width > cfg.fetchBufferEntries)
        badKnob("fetch.width", "must not exceed fetch_buffer_entries");
}

} // namespace

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
 * Largest micro-program a spec may build, in static instructions:
 * 4 MiB of code, 16x the largest catalog program and past every BTB
 * and I-cache level but the L3.
 */
constexpr double maxMicroInsts = 1 << 20;

/** A micro-program generator a spec may name. */
struct MicroGenerator
{
    const char *name;
    const char *arg[2];
    double min0;      ///< smallest first argument
    bool probability; ///< second argument is a probability
    double (*insts)(double, double);  ///< static program size
    Program (*build)(double, double); ///< on checked arguments
};

const MicroGenerator microGenerators[] = {
    {"random_branch_loop", {"block_len", "taken_prob"}, 0, true,
     [](double len, double) { return 3 * (len + 1); },
     [](double len, double p) {
         return microRandomBranchLoop(unsigned(len), p);
     }},
    {"taken_chain", {"n_blocks", "block_len"}, 1, false,
     [](double n, double len) { return n * (len + 1); },
     [](double n, double len) {
         return microTakenChain(unsigned(n), unsigned(len));
     }},
    {"sequential_loop", {"body_insts", "period"}, 0, false,
     [](double body, double) { return body + 2; },
     [](double body, double period) {
         return microSequentialLoop(unsigned(body), unsigned(period));
     }},
    {"recursion", {"depth", "leaf_len"}, 0, false,
     [](double, double leaf) { return leaf + 10; },
     [](double depth, double leaf) {
         return microRecursion(unsigned(depth), unsigned(leaf));
     }},
    {"btb_miss_chain", {"n_blocks", "block_len"}, 1, false,
     [](double n, double len) { return n * (len + 1); },
     [](double n, double len) {
         return microBtbMissChain(unsigned(n), unsigned(len));
     }},
};

const MicroGenerator *
findMicro(const std::string &name)
{
    for (const MicroGenerator &g : microGenerators)
        if (name == g.name)
            return &g;
    return nullptr;
}

/** Resolve a selector to the programs it names (build order is the
 *  catalog/declaration order, matching the legacy bench loops). */
std::vector<Program>
buildSelector(const WorkloadSelector &s)
{
    std::vector<Program> out;
    switch (s.kind) {
      case WorkloadSelector::Kind::Name: {
        const WorkloadSpec *w = findWorkload(s.name);
        if (!w)
            throw ConfigError(errorf("unknown workload '%s'",
                                     s.name.c_str()));
        out.push_back(buildWorkload(*w));
        break;
      }
      case WorkloadSelector::Kind::Set: {
        const unsigned stride = s.stride ? s.stride : 1;
        if (s.name == "catalog") {
            unsigned i = 0;
            for (const WorkloadSpec &w : workloadCatalog())
                if (i++ % stride == 0)
                    out.push_back(buildWorkload(w));
        } else if (s.name == "elf_relevant") {
            unsigned i = 0;
            for (const std::string &n : elfRelevantWorkloads())
                if (i++ % stride == 0)
                    out.push_back(buildWorkload(*findWorkload(n)));
        } else {
            throw ConfigError(errorf(
                "unknown workload set '%s' (catalog, elf_relevant)",
                s.name.c_str()));
        }
        break;
      }
      case WorkloadSelector::Kind::Suite: {
        const std::vector<std::string> names = suiteWorkloads(s.name);
        if (names.empty())
            throw ConfigError(
                errorf("unknown suite '%s'", s.name.c_str()));
        for (const std::string &n : names)
            out.push_back(buildWorkload(*findWorkload(n)));
        break;
      }
      case WorkloadSelector::Kind::Micro:
        // checkMicro has accepted the generator and its arguments.
        out.push_back(findMicro(s.name)->build(s.args[0], s.args[1]));
        break;
      case WorkloadSelector::Kind::Synthetic:
        out.push_back(generateCfg(s.params, s.seed, s.name));
        break;
    }
    return out;
}

/** A micro selector names a known generator and gives it two
 *  arguments it accepts: whole numbers (taken_prob a probability)
 *  that build at most maxMicroInsts instructions. */
void
checkMicro(const WorkloadSelector &s)
{
    const MicroGenerator *g = findMicro(s.name);
    if (!g)
        throw ConfigError(
            errorf("unknown micro generator '%s'", s.name.c_str()));
    if (s.args.size() != 2)
        throw ConfigError(errorf("micro generator '%s' expects 2 args "
                                 "(%s, %s)", g->name, g->arg[0],
                                 g->arg[1]));
    for (std::size_t i = 0; i < 2; ++i) {
        const double a = s.args[i];
        if (i == 1 && g->probability) {
            if (!(a >= 0 && a <= 1))
                throw ConfigError(errorf(
                    "micro '%s': %s must lie in [0, 1] (got %g)",
                    g->name, g->arg[i], a));
            continue;
        }
        const double lo = i == 0 ? g->min0 : 0;
        if (!(a >= lo && a <= UINT_MAX && a == std::floor(a)))
            throw ConfigError(errorf(
                "micro '%s': %s must be a whole number from %g to %u "
                "(got %g)", g->name, g->arg[i], lo, UINT_MAX, a));
    }
    const double insts = g->insts(s.args[0], s.args[1]);
    if (insts > maxMicroInsts)
        throw ConfigError(errorf(
            "micro '%s' would build %g static instructions (at most "
            "%g)", g->name, insts, maxMicroInsts));
}

/** Selector-only validation: everything buildSelector would reject,
 *  minus the cost of building the programs. */
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
        break;
      case WorkloadSelector::Kind::Suite:
        if (suiteWorkloads(s.name).empty())
            throw ConfigError(
                errorf("unknown suite '%s'", s.name.c_str()));
        break;
      case WorkloadSelector::Kind::Micro:
        checkMicro(s);
        break;
      case WorkloadSelector::Kind::Synthetic: {
        if (s.name.empty())
            throw ConfigError(
                "synthetic workload needs a non-empty name");
        // generateCfg's preconditions.
        const CfgParams &p = s.params;
        const char *n = s.name.c_str();
        if (p.numFuncs < 1)
            throw ConfigError(errorf(
                "synthetic '%s': num_funcs must be at least 1", n));
        if (p.blocksPerFunc < 2)
            throw ConfigError(errorf(
                "synthetic '%s': blocks_per_func must be at least 2",
                n));
        if (p.instsPerBlockMin > p.instsPerBlockMax)
            throw ConfigError(errorf(
                "synthetic '%s': insts_per_block_min (%u) exceeds "
                "insts_per_block_max (%u)", n, p.instsPerBlockMin,
                p.instsPerBlockMax));
        break;
      }
    }
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
                "name/set/suite/micro/synthetic");
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
        else if (k == "suite")
            setKind(WorkloadSelector::Kind::Suite, val.asString());
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
                         "name/set/suite/micro/synthetic");
    // Auxiliary fields are per-kind; a stray one on the wrong kind is
    // a spec mistake the no-silent-ignore contract must surface
    // (e.g. "stride" on a "suite" selector would otherwise quietly
    // select the full suite). Checked after the loop because JSON
    // member order may put them before the kind key.
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
    if (s.stride == 0)
        s.stride = 1;
    return s;
}

SpecValue
parseSpecValue(const std::string &key, const json::Value &v)
{
    switch (v.kind()) {
      case json::Value::Kind::Bool:
        return SpecValue::ofFlag(v.asBool());
      case json::Value::Kind::String:
        return SpecValue::ofText(v.asString());
      case json::Value::Kind::Number:
        try {
            return SpecValue::ofU64(v.asU64());
        } catch (const ParseError &) {
            return SpecValue::ofReal(v.asDouble());
        }
      default:
        throw ParseError(errorf(
            "override '%s' must be a number, boolean or string",
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
    // Top-level "workloads"/"configs" are accepted as an implicit
    // single group (hand-written request convenience); the canonical
    // writer always emits "groups".
    SweepGroup shorthand;
    bool shorthandUsed = false;
    bool groupsUsed = false;
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
            groupsUsed = true;
            for (std::size_t i = 0; i < val.size(); ++i)
                spec.groups.push_back(parseGroup(val[i]));
        } else if (k == "workloads") {
            shorthandUsed = true;
            for (std::size_t i = 0; i < val.size(); ++i)
                shorthand.workloads.push_back(parseSelector(val[i]));
        } else if (k == "configs") {
            shorthandUsed = true;
            for (std::size_t i = 0; i < val.size(); ++i)
                shorthand.configs.push_back(parseConfig(val[i]));
        } else
            return false;
        return true;
    });
    if (!schemaSeen)
        throw ParseError(
            errorf("spec is missing \"schema\": \"%s\"", kSchema));
    if (shorthandUsed) {
        if (groupsUsed)
            throw ParseError("spec mixes top-level workloads/configs "
                             "with explicit groups");
        spec.groups.push_back(std::move(shorthand));
    }
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
      case WorkloadSelector::Kind::Suite:
        w.field("suite", std::string_view(s.name));
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
              case SpecValue::Kind::Real:
                w.value(v.d);
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
