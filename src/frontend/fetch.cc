#include "frontend/fetch.hh"

#include "common/logging.hh"

namespace elfsim {

DecoupledFetchEngine::DecoupledFetchEngine(const FetchParams &params,
                                           MemHierarchy &mem,
                                           InstSupply &supply, Faq &faq,
                                           CheckpointQueue &ckpts)
    : params(params), mem(mem), supply(supply), faq(faq), ckpts(ckpts)
{
}

void
DecoupledFetchEngine::redirect(Cycle now)
{
    offsetInEntry = 0;
    busyUntil = now; // the in-flight access is squashed
}

void
bindPrediction(DynInst &di, const FaqBranch *fb, bool btb_covered)
{
    di.btbCovered = btb_covered;
    // The DCF pushed a speculative-history bit exactly for the
    // branches it saw in BTB slots.
    di.historyPushed = fb != nullptr;

    if (fb) {
        di.hasPrediction = true;
        di.predTaken = fb->predTaken;
        di.predTarget =
            fb->predTaken ? fb->target : di.si->nextPC();
    } else {
        // No explicit prediction: the front-end implicitly continued
        // sequentially.
        di.hasPrediction = false;
        di.predTaken = false;
        di.predTarget = di.si->nextPC();
    }
    resolveBranch(di);
}

unsigned
DecoupledFetchEngine::tick(Cycle now, Cycle faq_ready_cycle,
                           BoundedQueue<DynInst> &out)
{
    if (now < busyUntil) {
        ++st.icacheStallCycles;
        return 0;
    }

    unsigned produced = 0;
    // Up to two distinct lines per cycle, in different interleaves.
    Addr linesUsed[2] = {invalidAddr, invalidAddr};
    unsigned numLines = 0;
    const unsigned lineBytes = mem.l0i().config().lineBytes;
    bool crossedTaken = false;

    while (produced < params.width) {
        if (faq.empty() ||
            faq.front().genCycle + faq_ready_cycle > now) {
            // Empty, or the head block is still in flight through
            // BP2/FAQ (models the BP1->FE pipeline depth).
            if (produced == 0)
                ++st.faqEmptyCycles;
            break;
        }

        const FaqEntry &entry = faq.front();
        const Addr pc = entry.startPC + instsToBytes(offsetInEntry);
        const Addr line = pc / lineBytes;

        // Line/interleave constraints.
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
                // L0I miss: fetch stalls until the fill arrives.
                busyUntil = now + lat;
                break;
            }
            linesUsed[numLines++] = line;
            if (crossedTaken)
                ++st.takenCrossFetches;
        }

        // Checkpoint capacity: be conservative, branches are frequent.
        if (ckpts.full())
            break;

        DynInst &di = out.pushSlot();
        supply.make(di, pc, now, FetchMode::Decoupled);
        const FaqBranch *fb = entry.branchAt(offsetInEntry);
        bindPrediction(di, fb, !entry.fromBtbMiss);

        if (di.isBranch()) {
            di.checkpointId = ckpts.allocate(di.seq, true);
            if (fb) {
                CheckpointPayload &p = ckpts.payload(di.checkpointId);
                p.tage = fb->tagePred;
                p.ittage = fb->ittagePred;
            }
        }

        ++produced;
        ++st.insts;
        if (di.wrongPath)
            ++st.wrongPathInsts;

        const bool endsBlock = offsetInEntry + 1 == entry.numInsts;
        const bool takenEnd =
            endsBlock && entry.endCause == FaqBlockEnd::TakenBranch;

        if (endsBlock) {
            faq.pop();
            offsetInEntry = 0;
            // Fetching across a taken branch in the same cycle is
            // only possible when the target block is queued and its
            // line falls in the other interleave (checked above on
            // the next iteration).
            crossedTaken = takenEnd;
        } else {
            ++offsetInEntry;
        }
    }
    return produced;
}

} // namespace elfsim
