#include "frontend/dcf.hh"

#include <algorithm>

#include "common/logging.hh"

namespace elfsim {

DecoupledFetcher::DecoupledFetcher(MultiBtb &btb, PredictorBank &bank,
                                   Faq &faq)
    : btb(btb), bank(bank), faq(faq)
{
}

void
DecoupledFetcher::restart(Addr new_pc, Cycle now)
{
    pc = new_pc;
    stallUntil = now; // BP1 can probe with the new PC next cycle
    ++st.restarts;
}

unsigned
DecoupledFetcher::processEntry(const BtbLookupResult &res, FaqEntry &out)
{
    const BtbEntry &e = res.entry;
    const bool l0Hit = res.level == 0;
    // Extra pipeline cycles beyond the 1-cycle L1 access (L2 = 3).
    const unsigned accessExtra =
        res.latency > 1 ? unsigned(res.latency - 1) : 0;

    out.startPC = e.startPC;
    out.numInsts = e.numInsts;
    out.fromBtbMiss = false;
    out.endCause = FaqBlockEnd::Sequential;
    out.nextPC = e.fallthrough();

    unsigned bubbles = accessExtra;
    st.bubblesAccess += accessExtra;
    unsigned slotIdx = 0;

    // Process the tracked branches in offset order.
    std::array<const BtbSlot *, btbMaxBranches> order{};
    unsigned n = 0;
    for (const BtbSlot &s : e.slots) {
        if (s.valid)
            order[n++] = &s;
    }
    std::sort(order.begin(), order.begin() + n,
              [](const BtbSlot *a, const BtbSlot *b) {
                  return a->offset < b->offset;
              });

    for (unsigned i = 0; i < n; ++i) {
        const BtbSlot &s = *order[i];
        const Addr brPC = s.pc(e.startPC);
        FaqBranch &fb = out.branches[slotIdx++];
        fb.valid = true;
        fb.offset = s.offset;
        fb.kind = s.kind;

        if (s.kind == BranchKind::CondDirect) {
            fb.tagePred = bank.predictCond(brPC);
            fb.predTaken = fb.tagePred.taken;
            fb.target = s.target;
            bank.specBranch(brPC, s.kind, fb.predTaken);
            if (fb.predTaken) {
                out.endCause = FaqBlockEnd::TakenBranch;
                out.nextPC = s.target;
                out.numInsts = s.offset + 1;
                if (l0Hit) {
                    // 0 bubbles when the bimodal agreed; 1 when the
                    // tagged components override it in BP2.
                    if (fb.tagePred.taken != fb.tagePred.baseTaken) {
                        bubbles += 1;
                        ++st.bubblesBimodalOverride;
                    }
                } else {
                    bubbles += 1; // BP2 resteers BP1
                    ++st.bubblesBp2Taken;
                }
                return bubbles;
            }
            // Not taken: continue scanning. On an L0 hit the bimodal
            // drives the next address; disagreement costs one bubble
            // even when the final direction is not-taken.
            if (l0Hit && fb.tagePred.taken != fb.tagePred.baseTaken) {
                bubbles += 1;
                ++st.bubblesBimodalOverride;
            }
            continue;
        }

        // Unconditional branch: always taken, terminates the entry.
        fb.predTaken = true;
        out.endCause = FaqBlockEnd::TakenBranch;
        out.numInsts = s.offset + 1;

        switch (s.kind) {
          case BranchKind::UncondDirect:
          case BranchKind::DirectCall:
            fb.target = s.target;
            if (!l0Hit) {
                bubbles += 1;
                ++st.bubblesBp2Taken;
            }
            break;
          case BranchKind::Return: {
            const Addr t = bank.peekReturn();
            fb.target = t != invalidAddr ? t : e.fallthrough();
            if (!l0Hit) {
                bubbles += 1; // RAS hidden only behind an L0 BTB hit
                ++st.bubblesBp2Taken;
            }
            break;
          }
          case BranchKind::IndirectJump:
          case BranchKind::IndirectCall: {
            const Addr l0t = bank.predictIndirectL0(brPC);
            fb.ittagePred = bank.predictIndirect(brPC);
            if (l0t != invalidAddr) {
                fb.target = l0t;
                if (!l0Hit) {
                    bubbles += 1;
                    ++st.bubblesBp2Taken;
                }
            } else {
                // Fall back to the 3-cycle ITTAGE.
                fb.target = fb.ittagePred.target != invalidAddr
                                ? fb.ittagePred.target
                                : e.fallthrough();
                bubbles += 3;
                st.bubblesIndirectL1 += 3;
            }
            break;
          }
          default:
            ELFSIM_PANIC("unexpected slot kind");
        }
        out.nextPC = fb.target;
        bank.specBranch(brPC, s.kind, true);
        return bubbles;
    }

    // No taken branch: sequential fall-through. The speculative proxy
    // fall-through access (PC + 16 insts) was only correct if the
    // entry tracks the maximum; otherwise BP2 resteers BP1.
    if (!l0Hit && !e.tracksMaxInsts()) {
        bubbles += 1;
        ++st.bubblesShortEntry;
    }
    return bubbles;
}

bool
DecoupledFetcher::tick(Cycle now)
{
    if (pc == invalidAddr || now < stallUntil || faq.full())
        return false;

    const BtbLookupResult res = btb.lookup(pc);
    FaqEntry entry;
    entry.genCycle = now;

    if (!res.hit) {
        // Full BTB miss: queue sequential guesses, one block/cycle.
        entry.startPC = pc;
        entry.numInsts = btbMaxInsts;
        entry.fromBtbMiss = true;
        entry.endCause = FaqBlockEnd::Sequential;
        entry.nextPC = pc + instsToBytes(btbMaxInsts);
        faq.push(entry);
        ++st.blocks;
        ++st.btbMissBlocks;
        pc = entry.nextPC;
        return true;
    }

    const unsigned bubbles = processEntry(res, entry);
    faq.push(entry);
    ++st.blocks;
    if (entry.endCause == FaqBlockEnd::TakenBranch)
        ++st.takenBlocks;
    st.bubbleCycles += bubbles;
    pc = entry.nextPC;
    stallUntil = now + 1 + bubbles;
    return true;
}

} // namespace elfsim
