/**
 * @file
 * Declarative sweep description: the data model every experiment grid
 * can be expressed in, serialized as the elfsim-sweepspec-v1 JSON
 * schema, and expanded into the exact std::vector<SweepJob> the bench
 * harnesses used to assemble by hand.
 *
 * Layering (DESIGN.md "Options -> SweepSpec -> grid"):
 *
 *   bench_util::Options   CLI flags; a thin adapter that fills a
 *                         bench's native SweepSpec (windows)
 *   SweepSpec             the declarative description: workload
 *                         selectors x config rows (+ per-group window
 *                         overrides), run options
 *   expandSweep()         materializes programs and the SweepJob grid
 *   SweepRunner           executes the grid
 *
 * The spec is pure data: parseSweepSpec/writeSweepSpec round-trip a
 * spec byte-exactly (canonical serialization always emits every
 * field), so a grid can be archived beside its results and re-run
 * bit-identically later.
 *
 * JSON schema (validated by scripts/check_results.py --spec):
 *
 *   {
 *     "schema": "elfsim-sweepspec-v1",
 *     "name": "fig7",
 *     "jobs": 0,                  // sweep threads; 0 = auto
 *     "base_seed": 0,             // SweepRunner::setBaseSeed
 *     "run": { <RunOptions fields> },
 *     "groups": [
 *       {
 *         "workloads": [
 *           {"name": "641.leela"},              // one catalog entry
 *           {"set": "catalog", "stride": 3},    // catalog / elf_relevant
 *           {"suite": "2K17 INT"},              // one catalog suite
 *           {"micro": "random_branch_loop",     // directed micro-program
 *            "args": [8, 0.5]},
 *           {"synthetic": "server_sweep",       // raw CFG generator
 *            "seed": 24129, "params": { <CfgParams fields> }}
 *         ],
 *         "configs": [
 *           {"variant": "DCF"},
 *           {"variant": "DCF", "label": "deep BP1->FE",
 *            "overrides": {"bp1_to_fe": 8}}
 *         ],
 *         "run": { ... }          // optional group-level override
 *       }
 *     ]
 *   }
 *
 * Expansion order is group-major, then workload-major, then
 * config-minor — exactly the nested loops the legacy benches ran, so
 * result indices (and jobKeys, and exported bytes) are unchanged.
 *
 * An archived spec may still carry a "policy" block from when sweeps
 * had a fault-tolerance policy. It parses only while every field
 * holds the old default ("keep_going": true, "deadline_seconds": 0,
 * "stall_seconds": 0, "max_retries": 0, "manifest_path": "",
 * "resume": false); any other value is a ConfigError naming the
 * field. The writer no longer emits it.
 *
 * Errors: malformed JSON or an unknown field throws ParseError;
 * semantic problems (unknown workload/suite/knob, a contradictory
 * sampling schedule) throw ConfigError. The CLI maps both to the
 * uniform usage-error exit status 2.
 */

#ifndef ELFSIM_SIM_SWEEP_SPEC_HH
#define ELFSIM_SIM_SWEEP_SPEC_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hh"
#include "sim/config.hh"
#include "sim/sweep.hh"
#include "workload/builders.hh"

namespace elfsim {

/** Selects one or more programs for a sweep group. */
struct WorkloadSelector
{
    enum class Kind
    {
        Name,      ///< one catalog entry by name
        Set,       ///< "catalog" or "elf_relevant", with a stride
        Suite,     ///< every catalog entry of one suite
        Micro,     ///< a directed micro-program generator
        Synthetic, ///< raw CfgParams through generateCfg
    };

    Kind kind = Kind::Name;
    /** Catalog name / set name / suite name / micro generator name /
     *  synthetic program name, per kind. */
    std::string name;
    unsigned stride = 1;         ///< Set only: every Nth entry
    std::vector<double> args;    ///< Micro only: generator arguments
    CfgParams params;            ///< Synthetic only
    std::uint64_t seed = 1;      ///< Synthetic only

    static WorkloadSelector
    byName(std::string n)
    {
        WorkloadSelector s;
        s.kind = Kind::Name;
        s.name = std::move(n);
        return s;
    }

    static WorkloadSelector
    set(std::string setName, unsigned stride = 1)
    {
        WorkloadSelector s;
        s.kind = Kind::Set;
        s.name = std::move(setName);
        s.stride = stride ? stride : 1;
        return s;
    }

    static WorkloadSelector
    micro(std::string generator, std::vector<double> args)
    {
        WorkloadSelector s;
        s.kind = Kind::Micro;
        s.name = std::move(generator);
        s.args = std::move(args);
        return s;
    }

    static WorkloadSelector
    synthetic(std::string progName, const CfgParams &p,
              std::uint64_t seed)
    {
        WorkloadSelector s;
        s.kind = Kind::Synthetic;
        s.name = std::move(progName);
        s.params = p;
        s.seed = seed;
        return s;
    }
};

/** Typed value of one SimConfig knob override. */
struct SpecValue
{
    enum class Kind { U64, Real, Flag, Text };

    Kind kind = Kind::U64;
    std::uint64_t u = 0;
    double d = 0;
    bool b = false;
    std::string s;

    static SpecValue
    ofU64(std::uint64_t v)
    {
        SpecValue x;
        x.kind = Kind::U64;
        x.u = v;
        return x;
    }

    static SpecValue
    ofReal(double v)
    {
        SpecValue x;
        x.kind = Kind::Real;
        x.d = v;
        return x;
    }

    static SpecValue
    ofFlag(bool v)
    {
        SpecValue x;
        x.kind = Kind::Flag;
        x.b = v;
        return x;
    }

    static SpecValue
    ofText(std::string v)
    {
        SpecValue x;
        x.kind = Kind::Text;
        x.s = std::move(v);
        return x;
    }
};

/** One configuration row: a variant plus named knob overrides. */
struct ConfigSpec
{
    std::string label;  ///< display label (ablation tables); optional
    FrontendVariant variant = FrontendVariant::Dcf;
    std::vector<std::pair<std::string, SpecValue>> overrides;

    ConfigSpec() = default;

    explicit ConfigSpec(FrontendVariant v, std::string lbl = "")
        : label(std::move(lbl)), variant(v)
    {
    }

    ConfigSpec &
    setU64(std::string key, std::uint64_t v)
    {
        overrides.emplace_back(std::move(key), SpecValue::ofU64(v));
        return *this;
    }

    ConfigSpec &
    setReal(std::string key, double v)
    {
        overrides.emplace_back(std::move(key), SpecValue::ofReal(v));
        return *this;
    }

    ConfigSpec &
    setFlag(std::string key, bool v)
    {
        overrides.emplace_back(std::move(key), SpecValue::ofFlag(v));
        return *this;
    }

    ConfigSpec &
    setText(std::string key, std::string v)
    {
        overrides.emplace_back(std::move(key),
                               SpecValue::ofText(std::move(v)));
        return *this;
    }
};

/**
 * One grid block: every selected workload crossed with every config
 * row. A group may carry its own RunOptions (hasRun) — how
 * bench_throughput appends its sampled sub-grid with a different
 * window schedule.
 */
struct SweepGroup
{
    std::vector<WorkloadSelector> workloads;
    std::vector<ConfigSpec> configs;
    bool hasRun = false;
    RunOptions run; ///< used iff hasRun; else the spec-level options
};

/** A complete declarative sweep. */
struct SweepSpec
{
    std::string name;          ///< display/archive name ("fig7", ...)
    unsigned jobs = 0;         ///< sweep threads; 0 = auto
    std::uint64_t baseSeed = 0; ///< SweepRunner::setBaseSeed
    RunOptions run;            ///< default windows for every group
    SweepPolicy policy;        ///< empty; see SweepPolicy
    std::vector<SweepGroup> groups;
};

/** A materialized spec: owned programs plus the grid they back. */
struct ExpandedSweep
{
    /** Program storage (deque: SweepJob keeps stable pointers). */
    std::deque<Program> programs;
    std::vector<SweepJob> jobs;
    /** Per-cell config label (ConfigSpec::label; "" when unset). */
    std::vector<std::string> labels;
};

/** Build a SimConfig from a config row; throws ConfigError, naming
 *  the knob, on an unknown knob key, a type-mismatched value, or a
 *  value the model cannot run: a zero-sized queue, BTB level or
 *  coupled bimodal, a BTB assoc that does not divide its entries, a
 *  bimodal counter width outside 1..16, or a fetch width of 0 or
 *  above fetch_buffer_entries. */
SimConfig makeSpecConfig(const ConfigSpec &c);

/**
 * Apply one named knob override to @a cfg. The registry covers every
 * knob the experiment harnesses sweep (decoupling depth, FAQ/BTB
 * geometry, coupled predictor sizes, payload policy, divergence
 * capacity, extensions, rng seed); see sweep_spec.cc for the full
 * key list. Throws ConfigError on unknown keys or ill-typed values.
 */
void applySimKnob(SimConfig &cfg, const std::string &key,
                  const SpecValue &v);

/** Semantic validation (sampling schedule contradictions, empty
 *  groups, unknown workloads); throws ConfigError. */
void validateSweepSpec(const SweepSpec &spec);

/**
 * Materialize the spec into programs + jobs. Validates first, so a
 * bad spec throws (ConfigError) before any program is built.
 * Expansion is group-major / workload-major / config-minor.
 */
ExpandedSweep expandSweep(const SweepSpec &spec);

/** Parse a spec from its JSON document form. Unknown fields are
 *  ParseErrors; semantic problems are ConfigErrors. */
SweepSpec parseSweepSpec(const json::Value &doc);

/** Parse a spec from JSON text. */
SweepSpec parseSweepSpec(std::string_view text);

/** Load a spec from a file; throws IoError when unreadable. */
SweepSpec loadSweepSpec(const std::string &path);

/** Canonical serialization: always emits every run field, so
 *  parse(write(x)) re-serializes byte-identically. */
void writeSweepSpec(std::ostream &os, const SweepSpec &spec);

/** writeSweepSpec to a file; throws IoError when unwritable. */
void saveSweepSpec(const std::string &path, const SweepSpec &spec);

/** Inverse of variantName(); false on an unknown name. */
bool parseVariantName(std::string_view name, FrontendVariant &out);

} // namespace elfsim

#endif // ELFSIM_SIM_SWEEP_SPEC_HH
