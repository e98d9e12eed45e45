#include "sim/report.hh"

#include <string>

#include "common/stat_fields.hh"

namespace elfsim {

void
printReport(std::ostream &os, const Core &core)
{
    const BackendStats &be = core.backend().stats();
    const double kilo = double(be.committed) / 1000.0;

    os << "# " << variantName(core.config().variant)
       << ": derived metrics, then every counter\n";
    stats::printLine(os, "ipc",
                     core.cycles() ? double(be.committed) /
                                         double(core.cycles())
                                   : 0.0);
    stats::printLine(
        os, "branch_mpki",
        kilo > 0 ? double(be.condMispredicts + be.targetMispredicts) /
                       kilo
                 : 0.0);
    stats::printLine(os, "avg_redirect_to_fetch",
                     core.stats().avgRedirectToFetch());
    stats::printLine(os, "avg_coupled_insts",
                     core.elf().stats().avgCoupledInstsPerPeriod());
    for (unsigned l = 0; l < 3; ++l)
        stats::printLine(os, "btb_hit_l" + std::to_string(l),
                         core.btb().cumulativeHitRate(l));

    core.visitStats([&os](const char *group, const auto &counters) {
        stats::print(os, group, counters);
    });
}

} // namespace elfsim
