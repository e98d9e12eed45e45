#include "sim/report.hh"

#include <iomanip>
#include <map>

#include "common/export.hh"

namespace elfsim {

// ---------------------------------------------------------------------
// The shared stat-walk: every metric of the report is enumerated here,
// exactly once; all reporters are renderings of this sequence.
// ---------------------------------------------------------------------

void
walkSummary(const Core &core, ReportVisitor &v)
{
    const auto &be = core.backend().stats();
    const double insts = double(be.committed);
    const double kilo = insts / 1000.0;

    v.beginSection("summary");
    v.rowCount("cycles", core.cycles());
    v.rowCount("instructions", be.committed);
    v.row("IPC", core.cycles() ? insts / double(core.cycles()) : 0);
    v.row("branch MPKI",
          kilo > 0 ? (be.condMispredicts + be.targetMispredicts) / kilo
                   : 0);
    v.rowCount("mispredict flushes", core.stats().execFlushes);
    v.rowCount("memory-order flushes", core.stats().memOrderFlushes);
    v.rowCount("decode resteers", core.stats().decodeResteers);
    v.row("redirect->fetch latency", core.stats().avgRedirectToFetch(),
          "cycles");

    if (isElf(core.config().variant)) {
        const ElfStats &elf = core.elf().stats();
        v.rowCount("coupled periods", elf.coupledPeriods);
        v.row("insts/coupled period", elf.avgCoupledInstsPerPeriod());
        v.rowCount("divergence flushes", elf.divergenceFlushes);
        v.rowCount("payload-held flushes",
                   core.stats().pendingFlushWaits);
        v.rowCount("stall resteers", core.stats().stallResteers);
    }
}

void
walkFullReport(const Core &core, ReportVisitor &v)
{
    walkSummary(core, v);

    v.beginSection("frontend");
    if (core.config().variant != FrontendVariant::NoDcf) {
        const DcfStats &d = core.elf().dcf().stats();
        v.rowCount("dcf blocks generated", d.blocks);
        v.rowCount("dcf btb-miss blocks", d.btbMissBlocks);
        v.rowCount("dcf taken blocks", d.takenBlocks);
        v.rowCount("dcf bubble cycles", d.bubbleCycles);
        v.rowCount("  .. bimodal overrides", d.bubblesBimodalOverride);
        v.rowCount("  .. bp2 taken resteers", d.bubblesBp2Taken);
        v.rowCount("  .. short-entry proxies", d.bubblesShortEntry);
        v.rowCount("  .. ittage accesses", d.bubblesIndirectL1);
        v.rowCount("  .. l2-btb access", d.bubblesAccess);
        v.rowCount("dcf restarts", d.restarts);
        const FetchStats &f = core.elf().decoupledEngine().stats();
        v.rowCount("fetched (decoupled)", f.insts);
        v.rowCount("  .. wrong path", f.wrongPathInsts);
        v.rowCount("faq-empty cycles", f.faqEmptyCycles);
        v.rowCount("icache-stall cycles", f.icacheStallCycles);
        v.rowCount("taken cross-fetches", f.takenCrossFetches);
    }
    {
        const CoupledStats &c = core.elf().coupledEngine().stats();
        if (c.insts) {
            v.rowCount("fetched (coupled)", c.insts);
            v.rowCount("  .. wrong path", c.wrongPathInsts);
            v.rowCount("coupled control stalls", c.controlStalls);
            v.rowCount("  .. at conditionals", c.stallsCond);
            v.rowCount("  .. at returns", c.stallsReturn);
            v.rowCount("  .. at indirects", c.stallsIndirect);
            v.rowCount("coupled taken bubbles", c.takenBubbleCycles);
        }
    }
    {
        const DecodeStats &d = core.decode().stats();
        v.rowCount("decoded", d.insts);
        v.rowCount("misfetch recoveries", d.resteers);
        v.rowCount("  .. unconditional", d.resteerUncond);
        v.rowCount("  .. conditional", d.resteerCond);
        v.rowCount("  .. return", d.resteerReturn);
        v.rowCount("  .. indirect", d.resteerIndirect);
    }

    v.beginSection("btb");
    v.rowCount("lookups", core.btb().lookups());
    v.row("cumulative hit L0", 100 * core.btb().cumulativeHitRate(0),
          "%");
    v.row("cumulative hit L1", 100 * core.btb().cumulativeHitRate(1),
          "%");
    v.row("cumulative hit L2", 100 * core.btb().cumulativeHitRate(2),
          "%");
    v.rowCount("entries established",
               core.btbBuilder().establishments());
    v.rowCount("amendments (splits)", core.btbBuilder().amendments());

    v.beginSection("memory");
    core.memory().forEachStatGroup(
        [&v](const stats::StatGroup &g) { v.group(g); });

    v.beginSection("backend");
    const auto &b = core.backend().stats();
    v.rowCount("committed branches", b.committedBranches);
    v.rowCount("cond mispredicts", b.condMispredicts);
    v.rowCount("target mispredicts", b.targetMispredicts);
    v.rowCount("coupled-mode committed", b.coupledCommitted);
    v.rowCount("rob-full cycles", b.robFullCycles);
}

// ---------------------------------------------------------------------
// Text rendering (the classic aligned report).
// ---------------------------------------------------------------------

namespace {

class TextVisitor : public ReportVisitor
{
  public:
    TextVisitor(std::ostream &os, const Core &core)
        : os(os), core(core)
    {}

    void
    beginSection(const std::string &key) override
    {
        std::string title = key;
        if (key == "summary") {
            title = std::string("run summary (") +
                    variantName(core.config().variant) + ")";
        } else if (key == "frontend") {
            title = "front end";
        } else if (key == "memory") {
            title = "memory hierarchy";
        } else if (key == "backend") {
            title = "back end";
        }
        if (!first)
            os << "\n";
        first = false;
        os << "=== " << title << " ===\n";
    }

    void
    row(const std::string &label, double value,
        const std::string &unit) override
    {
        os << "  " << std::left << std::setw(34) << label << std::right
           << std::setw(14) << std::fixed << std::setprecision(3)
           << value << " " << unit << "\n";
    }

    void
    rowCount(const std::string &label, std::uint64_t value,
             const std::string &unit) override
    {
        os << "  " << std::left << std::setw(34) << label << std::right
           << std::setw(14) << value << " " << unit << "\n";
    }

    void
    group(const stats::StatGroup &g) override
    {
        g.dump(os);
    }

  private:
    std::ostream &os;
    const Core &core;
    bool first = true;
};

// ---------------------------------------------------------------------
// JSON rendering.
// ---------------------------------------------------------------------

/** Strip the "  .. " sub-row decoration off a text label so it can be
 *  a clean JSON key; disambiguate repeats within a section. */
class JsonVisitor : public ReportVisitor
{
  public:
    explicit JsonVisitor(JsonWriter &w) : w(w) {}

    void
    beginSection(const std::string &key) override
    {
        finishSection();
        w.key(key);
        w.beginObject();
        open = true;
        seen.clear();
    }

    void
    row(const std::string &label, double value,
        const std::string &unit) override
    {
        (void)unit;
        w.field(uniqueKey(label), value);
    }

    void
    rowCount(const std::string &label, std::uint64_t value,
             const std::string &unit) override
    {
        (void)unit;
        w.field(uniqueKey(label), value);
    }

    void
    group(const stats::StatGroup &g) override
    {
        w.key(uniqueKey(g.name()));
        stats::writeJson(w, g);
    }

    /** Close the trailing section object. */
    void
    finishSection()
    {
        if (open)
            w.endObject();
        open = false;
    }

  private:
    std::string
    uniqueKey(const std::string &label)
    {
        std::string key = label;
        const std::size_t start = key.find_first_not_of(' ');
        key.erase(0, start == std::string::npos ? key.size() : start);
        if (key.rfind("..", 0) == 0) {
            key.erase(0, 2);
            key.erase(0, key.find_first_not_of(' '));
        }
        const int n = ++seen[key];
        if (n > 1)
            key += "_" + std::to_string(n);
        return key;
    }

    JsonWriter &w;
    std::map<std::string, int> seen;
    bool open = false;
};

void
jsonReport(std::ostream &os, const Core &core, bool full)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "elfsim-report-v1");
    w.field("variant", variantName(core.config().variant));
    w.key("sections");
    w.beginObject();
    JsonVisitor v(w);
    if (full)
        walkFullReport(core, v);
    else
        walkSummary(core, v);
    v.finishSection();
    w.endObject();
    w.endObject();
}

} // namespace

void
TextReporter::summary(std::ostream &os, const Core &core) const
{
    TextVisitor v(os, core);
    walkSummary(core, v);
}

void
TextReporter::fullReport(std::ostream &os, const Core &core) const
{
    TextVisitor v(os, core);
    walkFullReport(core, v);
}

void
JsonReporter::summary(std::ostream &os, const Core &core) const
{
    jsonReport(os, core, false);
}

void
JsonReporter::fullReport(std::ostream &os, const Core &core) const
{
    jsonReport(os, core, true);
}

} // namespace elfsim
