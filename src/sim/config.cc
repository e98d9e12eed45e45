#include "sim/config.hh"

#include <iomanip>

#include "common/hash.hh"

namespace elfsim {

SimConfig
makeConfig(FrontendVariant variant)
{
    SimConfig cfg;
    cfg.variant = variant;
    return cfg;
}

void
printConfig(std::ostream &os, const SimConfig &cfg)
{
    auto row = [&](const char *k, const std::string &v) {
        os << "  " << std::left << std::setw(26) << k << v << "\n";
    };
    auto kb = [](double bytes) {
        return std::to_string(bytes / 1024.0).substr(0, 5) + "KB";
    };

    os << "Pipeline configuration (" << variantName(cfg.variant)
       << ")\n";
    row("Front-end", std::string(variantName(cfg.variant)));
    row("BTB L0",
        std::to_string(cfg.btb.l0.entries) + "-entry fully-assoc, " +
            std::to_string(cfg.btb.l0.latency) + " cycle");
    row("BTB L1",
        std::to_string(cfg.btb.l1.entries) + "-entry " +
            std::to_string(cfg.btb.l1.assoc) + "-way, " +
            std::to_string(cfg.btb.l1.latency) + " cycle");
    row("BTB L2",
        std::to_string(cfg.btb.l2.entries) + "-entry " +
            std::to_string(cfg.btb.l2.assoc) + "-way, " +
            std::to_string(cfg.btb.l2.latency) + " cycle");
    row("BTB entry",
        std::to_string(btbMaxInsts) + " insts, up to " +
            std::to_string(btbMaxBranches) + " taken branches");

    {
        Tage t(cfg.preds.tage);
        Ittage it(cfg.preds.ittage);
        row("Cond. pred", std::to_string(cfg.preds.tage.numTables) +
                              "-table TAGE, " + kb(t.storageBytes()));
        row("Ind. pred",
            "64-entry L0 BTC + " +
                std::to_string(cfg.preds.ittage.numTables) +
                "-table ITTAGE, " + kb(it.storageBytes()));
    }
    row("RAS", std::to_string(cfg.preds.rasEntries) + " entries");
    row("FAQ", std::to_string(cfg.faqEntries) + "-entry FIFO");
    row("BP1 to FE", std::to_string(cfg.bp1ToFe) + " cycles");
    row("Fetch width", std::to_string(cfg.fetch.width) + " insts");
    row("Issue width",
        std::to_string(cfg.backend.issueWidth) + " insts");
    row("Commit width",
        std::to_string(cfg.backend.commitWidth) + " insts");
    row("ROB/IQ/LSQ",
        std::to_string(cfg.backend.robEntries) + "/" +
            std::to_string(cfg.backend.iqEntries) + "/" +
            std::to_string(cfg.backend.lsqEntries));
    row("L0I", kb(cfg.mem.l0i.sizeBytes) + " " +
                   std::to_string(cfg.mem.l0i.assoc) + "-way, " +
                   std::to_string(cfg.mem.l0i.hitLatency) +
                   "c, 2-way intlv");
    row("L1I", kb(cfg.mem.l1i.sizeBytes) + " " +
                   std::to_string(cfg.mem.l1i.assoc) + "-way, " +
                   std::to_string(cfg.mem.l1i.hitLatency) + "c");
    row("L1D", kb(cfg.mem.l1d.sizeBytes) + " " +
                   std::to_string(cfg.mem.l1d.assoc) + "-way, " +
                   std::to_string(cfg.mem.l1d.hitLatency) + "c");
    row("L2", kb(cfg.mem.l2.sizeBytes) + " unified, " +
                  std::to_string(cfg.mem.l2.hitLatency) + "c");
    row("L3", kb(cfg.mem.l3.sizeBytes) + " unified, " +
                  std::to_string(cfg.mem.l3.hitLatency) + "c");
    row("Memory", std::to_string(cfg.mem.memLatency) + " cycles");

    if (isElf(cfg.variant)) {
        CoupledPredictors cp(cfg.coupledPreds);
        row("Coupled bimodal",
            std::to_string(cfg.coupledPreds.bimodal.entries) +
                " x 3-bit");
        row("Coupled BTC",
            std::to_string(cfg.coupledPreds.btc.entries) + " entries");
        row("Coupled RAS",
            std::to_string(cfg.coupledPreds.rasEntries) + " entries");
        row("Divergence vectors",
            std::to_string(cfg.divergence.vecEntries) +
                " x 2-bit x 2 + " +
                std::to_string(cfg.divergence.targetEntries) +
                "-entry target queues x 2");
        row("ELF total storage", kb(cp.storageBytes()));
    }
}

std::uint64_t
configFingerprint(const SimConfig &cfg)
{
    Fnv1a h;
    // The version string means a semantic change to any parameter's
    // interpretation can invalidate old fingerprints deliberately.
    h.str("elfsim-config-fp-v1");

    h.u64(std::uint64_t(cfg.variant));
    h.u64(cfg.fetch.width).u64(cfg.fetch.fetchToDecode);
    h.u64(cfg.bp1ToFe)
        .u64(cfg.faqEntries)
        .u64(cfg.checkpointEntries)
        .u64(cfg.fetchBufferEntries)
        .u64(cfg.maxInstPrefetch);

    const auto cache = [&h](const CacheParams &c) {
        h.u64(c.sizeBytes)
            .u64(c.assoc)
            .u64(c.lineBytes)
            .u64(c.hitLatency)
            .u64(c.interleaves);
    };
    cache(cfg.mem.l0i);
    cache(cfg.mem.l1i);
    cache(cfg.mem.l1d);
    cache(cfg.mem.l2);
    cache(cfg.mem.l3);
    h.u64(cfg.mem.memLatency).u64(cfg.mem.dataPrefetch ? 1 : 0);
    h.u64(cfg.mem.stridePf.tableEntries)
        .u64(cfg.mem.stridePf.degree)
        .u64(cfg.mem.stridePf.distance)
        .u64(cfg.mem.stridePf.confThreshold);

    const TageParams &t = cfg.preds.tage;
    h.u64(t.numTables)
        .u64(t.baseEntriesLog2)
        .u64(t.tableEntriesLog2)
        .u64(t.tagBits)
        .u64(t.ctrBits)
        .u64(t.minHist)
        .u64(t.maxHist)
        .u64(t.uResetPeriod)
        .u64(t.allocSeed);
    const IttageParams &it = cfg.preds.ittage;
    h.u64(it.numTables)
        .u64(it.tableEntriesLog2)
        .u64(it.baseEntriesLog2)
        .u64(it.tagBits)
        .u64(it.minHist)
        .u64(it.maxHist)
        .u64(it.uResetPeriod)
        .u64(it.allocSeed);
    h.u64(cfg.preds.l0Indirect.entries)
        .u64(cfg.preds.l0Indirect.tagBits)
        .u64(cfg.preds.rasEntries);

    const auto btbLevel = [&h](const BtbLevelParams &l) {
        h.u64(l.entries).u64(l.assoc).u64(l.latency);
    };
    btbLevel(cfg.btb.l0);
    btbLevel(cfg.btb.l1);
    btbLevel(cfg.btb.l2);

    const BackendParams &b = cfg.backend;
    h.u64(b.robEntries)
        .u64(b.iqEntries)
        .u64(b.lsqEntries)
        .u64(b.dispatchWidth)
        .u64(b.issueWidth)
        .u64(b.commitWidth)
        .u64(b.numAlu)
        .u64(b.numMulDiv)
        .u64(b.numLdSt)
        .u64(b.numSimd)
        .u64(b.numStData)
        .u64(b.decodeToDispatch)
        .u64(b.issueToExec)
        .u64(b.mulLatency)
        .u64(b.divLatency)
        .u64(b.fpLatency);

    h.u64(cfg.divergence.vecEntries).u64(cfg.divergence.targetEntries);

    const CoupledPredictorParams &cp = cfg.coupledPreds;
    h.u64(cp.bimodal.entries)
        .u64(cp.bimodal.counterBits)
        .u64(cp.btc.entries)
        .u64(cp.btc.tagBits)
        .u64(cp.rasEntries);

    h.u64(std::uint64_t(cfg.payloadPolicy))
        .u64(cfg.condElfRequireSaturation ? 1 : 0)
        .u64(cfg.rngSeed);
    return h.value();
}

} // namespace elfsim
