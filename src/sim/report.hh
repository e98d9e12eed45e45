/**
 * @file
 * End-of-run report: a few derived headline metrics, then every
 * counter of the core's stat tree (Core::visitStats) as one
 * "group.field value" line.
 */

#ifndef ELFSIM_SIM_REPORT_HH
#define ELFSIM_SIM_REPORT_HH

#include <ostream>

#include "sim/core.hh"

namespace elfsim {

/** Print @a core's report to @a os. */
void printReport(std::ostream &os, const Core &core);

} // namespace elfsim

#endif // ELFSIM_SIM_REPORT_HH
