#include "frontend/supply.hh"

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
