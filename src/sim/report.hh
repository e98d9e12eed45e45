/**
 * @file
 * End-of-run reporting. One shared stat-walk enumerates every
 * headline metric and component counter of a core exactly once
 * (walkSummary / walkFullReport); pluggable Reporter backends render
 * that walk as aligned human-readable text (TextReporter) or as a
 * machine-readable JSON document (JsonReporter).
 */

#ifndef ELFSIM_SIM_REPORT_HH
#define ELFSIM_SIM_REPORT_HH

#include <ostream>
#include <string>

#include "sim/core.hh"

namespace elfsim {

/**
 * Row-stream consumer for the shared core-report walk. Sections
 * arrive as stable keys ("summary", "frontend", "btb", "memory",
 * "backend"); rows carry the display label, the value, and an
 * optional unit. Whole component StatGroups (the memory hierarchy
 * levels) arrive via group().
 */
class ReportVisitor
{
  public:
    virtual ~ReportVisitor() = default;

    virtual void beginSection(const std::string &key) = 0;
    virtual void row(const std::string &label, double value,
                     const std::string &unit = "") = 0;
    virtual void rowCount(const std::string &label, std::uint64_t value,
                          const std::string &unit = "") = 0;
    virtual void group(const stats::StatGroup &g) = 0;
};

/** Walk the headline metrics (IPC, MPKI, flushes, ELF state). */
void walkSummary(const Core &core, ReportVisitor &v);

/** Walk the headline metrics plus every component's counters. */
void walkFullReport(const Core &core, ReportVisitor &v);

/** Renders a core's end-of-run report in some output format. */
class Reporter
{
  public:
    virtual ~Reporter() = default;

    /** Headline metrics only. */
    virtual void summary(std::ostream &os, const Core &core) const = 0;

    /** Headline metrics + full per-component dump. */
    virtual void fullReport(std::ostream &os,
                            const Core &core) const = 0;
};

/** The classic aligned-text report. */
class TextReporter : public Reporter
{
  public:
    void summary(std::ostream &os, const Core &core) const override;
    void fullReport(std::ostream &os, const Core &core) const override;
};

/**
 * Machine-readable report: one elfsim-report-v1 JSON document, with
 * a "sections" object mapping each section key to {label: value}
 * pairs and the memory hierarchy's StatGroups serialized losslessly.
 */
class JsonReporter : public Reporter
{
  public:
    void summary(std::ostream &os, const Core &core) const override;
    void fullReport(std::ostream &os, const Core &core) const override;
};

} // namespace elfsim

#endif // ELFSIM_SIM_REPORT_HH
