/**
 * @file
 * The native SweepSpec of every experiment harness — one builder per
 * figure/table, each producing exactly the grid the bench used to
 * assemble by hand (same expansion order, so result indices, cell
 * identities and exported bytes are unchanged).
 *
 * Keeping the grids here, as data, is what makes `--dump-spec` exact:
 * the JSON a bench archives next to its results re-runs the identical
 * grid through `--spec` on any bench.
 */

#ifndef ELFSIM_BENCH_BENCH_SPECS_HH
#define ELFSIM_BENCH_BENCH_SPECS_HH

#include <string>
#include <utility>
#include <vector>

#include "sim/sweep_spec.hh"

namespace elfsim {
namespace bench {

/** One-group spec scaffold shared by every builder. */
inline SweepSpec
oneGroupSpec(std::string name, const RunOptions &run,
             std::vector<WorkloadSelector> workloads,
             std::vector<ConfigSpec> configs)
{
    SweepSpec spec;
    spec.name = std::move(name);
    spec.run = run;
    SweepGroup g;
    g.workloads = std::move(workloads);
    g.configs = std::move(configs);
    spec.groups.push_back(std::move(g));
    return spec;
}

/** Figure 3: always-mispredicting micro-loop x the four frontends. */
inline SweepSpec
fig3Spec(const RunOptions &run)
{
    return oneGroupSpec(
        "fig3_flush_penalty", run,
        {WorkloadSelector::micro("random_branch_loop", {8, 0.5})},
        {ConfigSpec(FrontendVariant::NoDcf),
         ConfigSpec(FrontendVariant::Dcf),
         ConfigSpec(FrontendVariant::LElf),
         ConfigSpec(FrontendVariant::UElf)});
}

/** Figure 6: ELF-relevant workloads x {DCF, NoDCF}. */
inline SweepSpec
fig6Spec(const RunOptions &run)
{
    return oneGroupSpec("fig6_nodcf", run,
                        {WorkloadSelector::set("elf_relevant")},
                        {ConfigSpec(FrontendVariant::Dcf),
                         ConfigSpec(FrontendVariant::NoDcf)});
}

/** Figure 7: ELF-relevant workloads x {DCF, L/RET/IND/COND-ELF}. */
inline SweepSpec
fig7Spec(const RunOptions &run)
{
    return oneGroupSpec("fig7_elf_variants", run,
                        {WorkloadSelector::set("elf_relevant")},
                        {ConfigSpec(FrontendVariant::Dcf),
                         ConfigSpec(FrontendVariant::LElf),
                         ConfigSpec(FrontendVariant::RetElf),
                         ConfigSpec(FrontendVariant::IndElf),
                         ConfigSpec(FrontendVariant::CondElf)});
}

/** Figure 8: ELF-relevant workloads x {DCF, L-ELF, U-ELF}. */
inline SweepSpec
fig8Spec(const RunOptions &run)
{
    return oneGroupSpec("fig8_lelf_uelf", run,
                        {WorkloadSelector::set("elf_relevant")},
                        {ConfigSpec(FrontendVariant::Dcf),
                         ConfigSpec(FrontendVariant::LElf),
                         ConfigSpec(FrontendVariant::UElf)});
}

/** Figure 9: the full catalog x {DCF, NoDCF, L-ELF, U-ELF}. */
inline SweepSpec
fig9Spec(const RunOptions &run)
{
    return oneGroupSpec("fig9_geomean", run,
                        {WorkloadSelector::set("catalog")},
                        {ConfigSpec(FrontendVariant::Dcf),
                         ConfigSpec(FrontendVariant::NoDcf),
                         ConfigSpec(FrontendVariant::LElf),
                         ConfigSpec(FrontendVariant::UElf)});
}

/** DCF ablations: two proxies x the decoupled-fetcher design rows. */
inline SweepSpec
ablationDcfSpec(const RunOptions &run)
{
    std::vector<ConfigSpec> rows;
    rows.push_back(
        ConfigSpec(FrontendVariant::Dcf, "baseline (Table II DCF)"));
    for (unsigned depth : {0u, 1u, 5u, 8u}) {
        ConfigSpec c(FrontendVariant::Dcf,
                     "BP1->FE depth = " + std::to_string(depth) +
                         " cycles");
        c.setU64("bp1_to_fe", depth);
        rows.push_back(std::move(c));
    }
    rows.push_back(
        ConfigSpec(FrontendVariant::Dcf,
                   "no L0 BTB (every taken pays BP2 bubble)")
            .setU64("btb.l0.entries", 1)
            .setU64("btb.l0.assoc", 0));
    rows.push_back(ConfigSpec(FrontendVariant::Dcf,
                              "4x L0 BTB (96 entries)")
                       .setU64("btb.l0.entries", 96)
                       .setU64("btb.l0.assoc", 0));
    rows.push_back(ConfigSpec(FrontendVariant::Dcf,
                              "no FAQ-directed I-prefetch")
                       .setU64("max_inst_prefetch", 0));
    rows.push_back(ConfigSpec(FrontendVariant::Dcf,
                              "shallow FAQ (4 entries)")
                       .setU64("faq_entries", 4));
    return oneGroupSpec("ablation_dcf", run,
                        {WorkloadSelector::byName("641.leela"),
                         WorkloadSelector::byName("srv1.subtest_1")},
                        std::move(rows));
}

/** ELF ablations: the MCTS proxy x the ELF design-choice rows. */
inline SweepSpec
ablationElfSpec(const RunOptions &run)
{
    std::vector<ConfigSpec> rows;
    rows.push_back(ConfigSpec(FrontendVariant::UElf,
                              "U-ELF (default)"));
    rows.push_back(ConfigSpec(FrontendVariant::Dcf, "DCF baseline"));
    rows.push_back(
        ConfigSpec(FrontendVariant::UElf,
                   "payloads wait for ROB head (IV-D1 baseline)")
            .setText("payload_policy", "rob_head"));
    rows.push_back(ConfigSpec(FrontendVariant::UElf,
                              "idealized free checkpoints")
                       .setText("payload_policy", "ideal"));
    rows.push_back(
        ConfigSpec(FrontendVariant::UElf,
                   "no saturation filter (speculate always)")
            .setFlag("cond_elf_require_saturation", false));
    rows.push_back(ConfigSpec(FrontendVariant::UElf,
                              "4x coupled bimodal (8K entries)")
                       .setU64("coupled.bimodal_entries", 8192));
    rows.push_back(ConfigSpec(FrontendVariant::UElf,
                              "1/4 coupled bimodal (512)")
                       .setU64("coupled.bimodal_entries", 512));
    rows.push_back(
        ConfigSpec(FrontendVariant::UElf,
                   "1/4 divergence tracking (16-entry vectors)")
            .setU64("divergence.vec_entries", 16)
            .setU64("divergence.target_entries", 4));
    rows.push_back(ConfigSpec(FrontendVariant::UElf,
                              "shallow FAQ (8 entries)")
                       .setU64("faq_entries", 8));
    rows.push_back(ConfigSpec(FrontendVariant::UElf,
                              "deep FAQ (128 entries)")
                       .setU64("faq_entries", 128));
    rows.push_back(
        ConfigSpec(FrontendVariant::UElf,
                   "extension: gshare coupled predictor")
            .setText("coupled.cond_kind", "gshare"));
    rows.push_back(
        ConfigSpec(FrontendVariant::UElf,
                   "extension: decode-time BTB fill (Boomerang)")
            .setFlag("decode_btb_fill", true));
    return oneGroupSpec("ablation_elf", run,
                        {WorkloadSelector::byName("641.leela")},
                        std::move(rows));
}

/**
 * Simulator throughput: the (optionally strided) catalog across the
 * three distinct hot paths, plus — with @a sampled — a second group
 * running the memory-bound slow movers in sampled mode over a long
 * stream (its own RunOptions, hence its own group).
 */
inline SweepSpec
throughputSpec(const RunOptions &run, unsigned stride, bool sampled,
               bool quick)
{
    SweepSpec spec = oneGroupSpec(
        "throughput", run,
        {WorkloadSelector::set("catalog", stride)},
        {ConfigSpec(FrontendVariant::NoDcf),
         ConfigSpec(FrontendVariant::Dcf),
         ConfigSpec(FrontendVariant::UElf)});
    if (sampled) {
        SweepGroup g;
        g.workloads = {WorkloadSelector::byName("605.mcf"),
                       WorkloadSelector::byName("srv2.subtest_3")};
        g.configs = {ConfigSpec(FrontendVariant::UElf)};
        g.hasRun = true;
        g.run.warmupInsts = 0;
        g.run.measureInsts = quick ? 2500000 : 10000000;
        g.run.samplePeriodInsts = 1000000;
        g.run.sampleLengthInsts = 5000;
        g.run.sampleWarmupInsts = 1000;
        spec.groups.push_back(std::move(g));
    }
    return spec;
}

/** Server capacity study: four growing instruction footprints of the
 *  srv1 recipe x the four frontends. */
inline SweepSpec
serverCapacitySpec(const RunOptions &run)
{
    std::vector<WorkloadSelector> footprints;
    for (unsigned funcs : {64u, 256u, 768u, 1536u}) {
        CfgParams p;
        p.numFuncs = funcs;
        p.blocksPerFunc = 5;   // short handlers
        // Main acts as the dispatcher; nested calls stay rare so the
        // walk keeps returning to main and sweeps the whole image
        // (the srv1 recipe — see the catalog notes).
        p.callBlockProb = 0.08;
        p.indirectCallFrac = 0.15;
        p.callSkew = 0.05;     // flat call profile: touch everything
        p.fracLoopBranches = 0.42;
        p.fracPatternBranches = 0.40;
        p.loopPeriodMin = 2;
        p.loopPeriodMax = 6;
        p.dataFootprint = 256 << 10;
        footprints.push_back(WorkloadSelector::synthetic(
            "server_sweep", p, 0x5e41));
    }
    return oneGroupSpec("server_capacity", run,
                        std::move(footprints),
                        {ConfigSpec(FrontendVariant::Dcf),
                         ConfigSpec(FrontendVariant::NoDcf),
                         ConfigSpec(FrontendVariant::LElf),
                         ConfigSpec(FrontendVariant::UElf)});
}

} // namespace bench
} // namespace elfsim

#endif // ELFSIM_BENCH_BENCH_SPECS_HH
