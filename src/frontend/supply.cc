#include "frontend/supply.hh"

#include <cstdio>

#include "common/logging.hh"

namespace elfsim {

void
InstSupply::make(DynInst &di, Addr pc, Cycle now, FetchMode mode)
{
    di = DynInst{};
    di.seq = ++seqCounter;
    di.mode = mode;
    di.fetchCycle = now;

    if (!wrongPath && pc == oracle.pcAt(oracleCursor)) {
        const OracleInst &oi = oracle.at(oracleCursor);
        di.si = oi.si;
        di.oracleIdx = oracleCursor;
        di.taken = oi.taken;
        di.actualNext = oi.nextPC;
        di.memAddr = oi.memAddr;
        ++oracleCursor;
        return;
    }

#ifdef ELFSIM_TRACE_REDIRECTS
    if (!wrongPath)
        std::fprintf(stderr,
                     "  wrong-path latch at seq=%llu pc=0x%llx "
                     "(expected 0x%llx, cursor=%llu) mode=%d\n",
                     (unsigned long long)(seqCounter + 0),
                     (unsigned long long)pc,
                     (unsigned long long)oracle.pcAt(oracleCursor),
                     (unsigned long long)oracleCursor, int(mode));
#endif
    // Wrong path (or the very first deviation, which latches it).
    wrongPath = true;
    ++wrongPathCount;
    di.wrongPath = true;
    di.si = walker.instAt(pc);
    ELFSIM_ASSERT(di.si != nullptr, "misaligned fetch pc 0x%llx",
                  (unsigned long long)pc);
    // Wrong-path branches "resolve" to their prediction (no nested
    // wrong-path redirects); default to fall-through until the caller
    // attaches a prediction.
    di.taken = false;
    di.actualNext = di.si->nextPC();
    if (di.si->isMemInst())
        di.memAddr = walker.wrongPathMemAddr(*di.si, di.seq);
}

} // namespace elfsim
