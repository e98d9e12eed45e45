#include "workload/oracle_stream.hh"

#include "workload/compiled_trace.hh"

namespace elfsim {

void
OracleGen::reset(const Program &prog)
{
    pc = prog.entryPC();
    // The call stack is capped at maxCallDepth; pre-sizing it keeps
    // deep call chains from growing the vector mid-simulation.
    callStack.clear();
    callStack.reserve(maxCallDepth);
    condCount.assign(prog.behaviors().numConds(), 0);
    indCount.assign(prog.behaviors().numIndirects(), 0);
    memCount.assign(prog.behaviors().numMems(), 0);
}

OracleInst
OracleGen::step(const Program &prog)
{
    const StaticInst *si = prog.instAt(pc);
    ELFSIM_ASSERT(si != nullptr,
                  "architectural path left the program image at 0x%llx",
                  (unsigned long long)pc);

    OracleInst oi;
    oi.si = si;
    Addr next = si->nextPC();

    if (si->isMemInst()) {
        const MemSpec &m = prog.behaviors().mem(si->behavior);
        oi.memAddr = m.address(memCount[si->behavior]++);
    }

    switch (si->branch) {
      case BranchKind::None:
        break;
      case BranchKind::CondDirect: {
        const CondSpec &c = prog.behaviors().cond(si->behavior);
        oi.taken = c.outcome(condCount[si->behavior]++);
        if (oi.taken)
            next = si->directTarget;
        break;
      }
      case BranchKind::UncondDirect:
        oi.taken = true;
        next = si->directTarget;
        break;
      case BranchKind::DirectCall:
        oi.taken = true;
        if (callStack.size() >= maxCallDepth)
            callStack.erase(callStack.begin());
        callStack.push_back(si->nextPC());
        next = si->directTarget;
        break;
      case BranchKind::IndirectJump: {
        const IndirectSpec &t = prog.behaviors().indirect(si->behavior);
        oi.taken = true;
        next = t.target(indCount[si->behavior]++);
        break;
      }
      case BranchKind::IndirectCall: {
        const IndirectSpec &t = prog.behaviors().indirect(si->behavior);
        oi.taken = true;
        if (callStack.size() >= maxCallDepth)
            callStack.erase(callStack.begin());
        callStack.push_back(si->nextPC());
        next = t.target(indCount[si->behavior]++);
        break;
      }
      case BranchKind::Return:
        oi.taken = true;
        if (callStack.empty()) {
            next = prog.entryPC();
        } else {
            next = callStack.back();
            callStack.pop_back();
        }
        break;
    }

    oi.nextPC = next;
    pc = next;
    return oi;
}

OracleStream::OracleStream(const Program &prog, std::size_t window_cap,
                           std::shared_ptr<const CompiledTrace> trace)
    : prog(prog), windowCap(window_cap), window(window_cap),
      trace(std::move(trace))
{
    gen.reset(prog);
    // Position 0 opens run 0, whose PC must be the entry point.
    tracePC = prog.entryPC();
}

OracleStream::~OracleStream() = default;

const OracleInst &
OracleStream::at(SeqNum idx)
{
    ELFSIM_ASSERT(idx >= baseIdx,
                  "oracle index %llu older than window base %llu",
                  (unsigned long long)idx, (unsigned long long)baseIdx);
    while (idx >= baseIdx + window.size())
        generateOne();
    return window.at(idx - baseIdx);
}

void
OracleStream::retireUpTo(SeqNum idx)
{
    while (!window.empty() && baseIdx <= idx) {
        window.dropFront();
        ++baseIdx;
    }
    if (window.empty() && baseIdx <= idx)
        baseIdx = idx + 1;
}

void
OracleStream::seekTo(SeqNum next_idx)
{
    ELFSIM_ASSERT(window.empty(),
                  "oracle seek with %zu unretired instructions",
                  window.size());
    ELFSIM_ASSERT(next_idx >= 1, "oracle seek to index 0");
    const InstCount pos = next_idx - 1;
    ELFSIM_ASSERT((trace && pos <= trace->size()) || pos == 0,
                  "oracle seek past the compiled prefix needs a "
                  "generator state");
    baseIdx = next_idx;
    genCursor = pos;
    tailAdopted = false;
    if (trace)
        seekTables(pos);
    else
        gen.reset(prog);
}

void
OracleStream::seekTo(SeqNum next_idx, const OracleGen &state)
{
    ELFSIM_ASSERT(window.empty(),
                  "oracle seek with %zu unretired instructions",
                  window.size());
    ELFSIM_ASSERT(next_idx >= 1, "oracle seek to index 0");
    const InstCount pos = next_idx - 1;
    baseIdx = next_idx;
    genCursor = pos;
    if (trace && pos <= trace->size()) {
        // Inside the compiled prefix the tables are authoritative;
        // the generator re-adopts the trace end state at the edge.
        tailAdopted = false;
        seekTables(pos);
        return;
    }
    gen = state;
    tailAdopted = trace != nullptr;
}

void
OracleStream::seekTables(InstCount pos)
{
    const CompiledTrace &t = *trace;
    if (pos == t.size())
        return; // the next instruction comes from the lazy tail
    const InstCount r = t.runContaining(pos);
    tracePC = t.runPC(r) + instsToBytes(pos - t.runPos(r));
    nextRun = r + 1;
    nextRunPos = t.runEnd(r);
    nextBranch = t.firstBranchAtOrAfter(pos);
    nextMem = t.firstMemAtOrAfter(pos);
}

OracleInst
OracleStream::fromTables()
{
    const CompiledTrace &t = *trace;
    const InstCount pos = genCursor;
    if (pos == nextRunPos) {
        // A run opens here, at the previous instruction's next PC
        // (its taken target, or the entry point at position 0).
        ELFSIM_ASSERT(t.runPC(nextRun) == tracePC,
                      "compiled trace: run %llu opens at 0x%llx, "
                      "the stream is at 0x%llx",
                      (unsigned long long)nextRun,
                      (unsigned long long)t.runPC(nextRun),
                      (unsigned long long)tracePC);
        nextRunPos = t.runEnd(nextRun);
        ++nextRun;
    }

    OracleInst oi;
    oi.si = prog.instAt(tracePC);
    ELFSIM_ASSERT(oi.si != nullptr,
                  "compiled trace left the program image at 0x%llx",
                  (unsigned long long)tracePC);
    oi.nextPC = oi.si->nextPC();
    if (oi.si->branch != BranchKind::None) {
        ELFSIM_ASSERT(nextBranch < t.numBranchEvents() &&
                          t.branchPos(nextBranch) == pos,
                      "compiled trace: branch at position %llu has "
                      "no branch event",
                      (unsigned long long)pos);
        oi.taken = t.branchTaken(nextBranch);
        oi.nextPC = t.branchTarget(nextBranch);
        ++nextBranch;
    }
    if (oi.si->isMemInst()) {
        ELFSIM_ASSERT(nextMem < t.numMemEvents() &&
                          t.memPos(nextMem) == pos,
                      "compiled trace: memory instruction at position "
                      "%llu has no memory event",
                      (unsigned long long)pos);
        oi.memAddr = t.memAddr(nextMem);
        ++nextMem;
    }
    // A run ends exactly at a taken transfer, except at the prefix
    // end, where either may happen.
    ELFSIM_ASSERT(oi.taken == (pos + 1 == nextRunPos) ||
                      pos + 1 == t.size(),
                  "compiled trace: run boundary and taken transfer "
                  "disagree at position %llu",
                  (unsigned long long)pos);
    tracePC = oi.nextPC;
    return oi;
}

void
OracleStream::generateOne()
{
    ELFSIM_ASSERT(window.size() < windowCap,
                  "oracle window overflow (%zu insts unretired)",
                  window.size());

    if (trace) {
        if (genCursor < trace->size()) {
            // Hot path with a compiled backing store: cursor reads
            // from the shared immutable tables, no spec evaluation
            // and no hashing.
            window.push(fromTables());
            ++genCursor;
            return;
        }
        if (!tailAdopted) {
            // Fell off the compiled prefix (fetch runs a little ahead
            // of the instruction budget the trace was sized for):
            // resume the lazy generator from the trace's end state.
            gen = trace->endState();
            tailAdopted = true;
        }
    }

    window.push(gen.step(prog));
    ++genCursor;
}

} // namespace elfsim
