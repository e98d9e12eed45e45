#include "frontend/coupled.hh"

#include "common/logging.hh"

namespace elfsim {

CoupledFetchEngine::CoupledFetchEngine(const FetchParams &params,
                                       MemHierarchy &mem,
                                       InstSupply &supply,
                                       CheckpointQueue &ckpts,
                                       CoupledPolicy &policy)
    : params(params), mem(mem), supply(supply), ckpts(ckpts),
      policy(policy)
{
}

void
CoupledFetchEngine::start(Addr pc, Cycle now)
{
    fetchPC = pc;
    stalledControl = false;
    busyUntil = now; // can fetch next cycle
}

void
CoupledFetchEngine::resumeAt(Addr pc, Cycle now)
{
    ELFSIM_ASSERT(active() || pc != invalidAddr, "resume without pc");
    fetchPC = pc;
    stalledControl = false;
    busyUntil = now;
}

unsigned
CoupledFetchEngine::tick(Cycle now, BoundedQueue<DynInst> &out)
{
    if (!active() || stalledControl)
        return 0;
    if (now < busyUntil) {
        ++st.icacheStallCycles;
        return 0;
    }

    unsigned produced = 0;
    Addr linesUsed[2] = {invalidAddr, invalidAddr};
    unsigned numLines = 0;
    const unsigned lineBytes = mem.l0i().config().lineBytes;

    while (produced < params.width) {
        const Addr pc = fetchPC;
        const Addr line = pc / lineBytes;

        bool known = false;
        for (unsigned i = 0; i < numLines; ++i)
            known |= linesUsed[i] == line;
        if (!known) {
            if (numLines == 2)
                break;
            if (numLines == 1 &&
                mem.l0i().bank(line * lineBytes) ==
                    mem.l0i().bank(linesUsed[0] * lineBytes))
                break;
            const Cycle lat = mem.instFetch(pc, now);
            if (lat > mem.l0i().config().hitLatency) {
                busyUntil = now + lat;
                break;
            }
            linesUsed[numLines++] = line;
        }

        if (ckpts.full())
            break;

        DynInst &di = out.pushSlot();
        supply.make(di, pc, now, FetchMode::Coupled);

        if (!di.si->isBranchInst()) {
            di.hasPrediction = false;
            di.predTarget = di.si->nextPC();
            fetchPC = pc + instBytes;
            if (di.wrongPath)
                ++st.wrongPathInsts;
            ++produced;
            ++st.insts;
            continue;
        }

        // Branch: claim a checkpoint-queue entry now; its payload is
        // populated later from FAQ information (paper Section IV-D).
        di.checkpointId = ckpts.allocate(di.seq, false);

        unsigned bubbles = 0;
        bool stall = false;

        switch (di.si->branch) {
          case BranchKind::UncondDirect:
          case BranchKind::DirectCall:
            // Target available from the instruction word (pre-decode
            // bits identify the branch at fetch output).
            di.hasPrediction = true;
            di.predTaken = true;
            di.predTarget = di.si->directTarget;
            if (di.si->branch == BranchKind::DirectCall)
                policy.onCall(pc + instBytes);
            else
                policy.onUncond(pc);
            di.historyPushed = policy.pushesHistory();
            bubbles = 1 + policy.extraBubbles(di);
            break;
          case BranchKind::CondDirect:
            if (!policy.predictCond(di)) {
                stall = true;
                break;
            }
            if (di.predTaken)
                bubbles = 1 + policy.extraBubbles(di);
            break;
          case BranchKind::Return:
            if (!policy.predictReturn(di)) {
                stall = true;
                break;
            }
            bubbles = 1 + policy.extraBubbles(di);
            break;
          case BranchKind::IndirectJump:
          case BranchKind::IndirectCall:
            if (!policy.predictIndirect(di)) {
                stall = true;
                break;
            }
            if (di.si->branch == BranchKind::IndirectCall)
                policy.onCall(pc + instBytes);
            bubbles = 1 + policy.extraBubbles(di);
            break;
          default:
            ELFSIM_PANIC("unexpected branch kind");
        }

        if (stall) {
            // The decision cannot be speculated past: fetch the
            // branch itself, then hold until resteered or resynced.
            if (di.si->branch == BranchKind::CondDirect)
                ++st.stallsCond;
            else if (di.si->branch == BranchKind::Return)
                ++st.stallsReturn;
            else
                ++st.stallsIndirect;
            di.hasPrediction = false;
            di.predTaken = false;
            di.predTarget = di.si->nextPC();
            di.fetchStalled = true;
            resolveBranch(di);
            stalledControl = true;
            ++st.controlStalls;
            ++produced;
            ++st.insts;
            break;
        }

        if (di.si->branch != BranchKind::UncondDirect &&
            di.si->branch != BranchKind::DirectCall)
            di.historyPushed = policy.pushesHistory();
        resolveBranch(di);
        fetchPC = di.predTaken ? di.predTarget : pc + instBytes;
        ++produced;
        ++st.insts;
        if (di.wrongPath)
            ++st.wrongPathInsts;

        if (bubbles) {
            // Taken-branch penalty: the fetch group ends here.
            st.takenBubbleCycles += bubbles;
            busyUntil = now + 1 + bubbles;
            break;
        }
    }
    return produced;
}

} // namespace elfsim
