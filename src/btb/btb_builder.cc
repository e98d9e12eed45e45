#include "btb/btb_builder.hh"

#include "common/logging.hh"

namespace elfsim {

BtbBuilder::BtbBuilder(const Program &prog, MultiBtb &btb)
    : prog(prog), btb(btb)
{
}

BtbEntry
BtbBuilder::buildEntry(Addr start_pc) const
{
    BtbEntry e;
    e.valid = true;
    e.startPC = start_pc;
    e.termination = BtbTermination::MaxInsts;

    unsigned slot = 0;
    Addr pc = start_pc;
    while (e.numInsts < btbMaxInsts) {
        const StaticInst *si = prog.instAt(pc);
        if (!si) {
            // Walked off the code image; treat as a max-length stop.
            break;
        }
        if (si->isBranchInst()) {
            if (isUnconditional(si->branch)) {
                // Unconditional branches always terminate the entry
                // and always occupy a slot. If no slot is free, the
                // entry ends before this instruction instead.
                if (slot >= btbMaxBranches) {
                    e.termination = BtbTermination::SlotPressure;
                    break;
                }
                e.slots[slot].valid = true;
                e.slots[slot].offset =
                    static_cast<std::uint8_t>(e.numInsts);
                e.slots[slot].kind = si->branch;
                e.slots[slot].target =
                    isDirect(si->branch) ? si->directTarget
                                         : invalidAddr;
                ++slot;
                ++e.numInsts;
                e.termination = BtbTermination::Unconditional;
                return e;
            }
            // Conditional: claims a slot only if observed taken.
            if (takenBefore.count(si->pc)) {
                if (slot >= btbMaxBranches) {
                    // A third tracked conditional would be needed.
                    e.termination = BtbTermination::SlotPressure;
                    break;
                }
                e.slots[slot].valid = true;
                e.slots[slot].offset =
                    static_cast<std::uint8_t>(e.numInsts);
                e.slots[slot].kind = si->branch;
                e.slots[slot].target = si->directTarget;
                ++slot;
            }
            // Never-observed-taken conditionals occupy no slot.
        }
        ++e.numInsts;
        pc += instBytes;
    }

    if (e.numInsts == 0) {
        // start_pc was unmapped: synthesize a max-length sequential
        // entry so the front-end keeps sequencing (wrong-path only).
        e.numInsts = btbMaxInsts;
    }
    return e;
}

void
BtbBuilder::establish(Addr start_pc)
{
    const BtbEntry e = buildEntry(start_pc);
    btb.insert(e);
    ++st.establishments;
    currentStart = start_pc;
    currentEnd = e.fallthrough();
    nextEstablishPC = currentEnd;
}

void
BtbBuilder::retireSequentialRange(Addr start_pc, InstCount n)
{
    if (n == 0)
        return;
    // First instruction ever: scalar retire() establishes at si.pc.
    if (nextEstablishPC == invalidAddr)
        establish(start_pc);
    // Scalar retire() establishes whenever si.pc == nextEstablishPC.
    // The visited PCs are exactly start_pc + k*instBytes for k < n,
    // and each establish() moves nextEstablishPC strictly forward
    // (every entry covers >= 1 instruction), so walking the
    // establishment chain in ascending order reproduces the scalar
    // visit order.
    const Addr end = start_pc + instsToBytes(n);
    while (nextEstablishPC >= start_pc && nextEstablishPC < end &&
           (nextEstablishPC - start_pc) % instBytes == 0)
        establish(nextEstablishPC);
}

void
BtbBuilder::retire(const StaticInst &si, bool taken, Addr next_pc)
{
    // Start of a fresh region: first instruction ever, the target of
    // the previous taken branch, or the fall-through of the previous
    // entry.
    if (nextEstablishPC == invalidAddr || si.pc == nextEstablishPC)
        establish(si.pc);

    if (si.branch == BranchKind::CondDirect && taken &&
        !takenBefore.count(si.pc)) {
        // A never-taken conditional just turned taken: amend every
        // established entry that covers it (rebuilding shortens/
        // splits them). Candidate entry starts lie within the
        // 16-instruction reach before the branch.
        takenBefore.insert(si.pc);
        for (unsigned back = 0; back < btbMaxInsts; ++back) {
            const Addr start = si.pc - instsToBytes(back);
            if (start < prog.codeBase())
                break;
            if (!btb.present(start))
                continue;
            const BtbEntry rebuilt = buildEntry(start);
            btb.insert(rebuilt);
            ++st.amendments;
            if (start == currentStart)
                currentEnd = rebuilt.fallthrough();
        }
    }

    if (si.branch == BranchKind::CondDirect &&
        takenBefore.count(si.pc)) {
        // A tracked conditional is sometimes predicted taken; when
        // that prediction is wrong the front-end restarts at the
        // fall-through — a mid-entry address. Make sure an entry
        // exists there, or every such flush degenerates into
        // sequential guessing (and drops history bits).
        const Addr ft = si.pc + instBytes;
        if (!btb.present(ft)) {
            btb.insert(buildEntry(ft));
            ++st.establishments;
        }
        // Symmetrically, the taken target needs one for the
        // opposite misprediction.
        if (!btb.present(si.directTarget)) {
            btb.insert(buildEntry(si.directTarget));
            ++st.establishments;
        }
    }

    if (si.isBranchInst() && taken) {
        // The stream jumps: the next region starts at the target.
        nextEstablishPC = next_pc;
        currentStart = invalidAddr;
        currentEnd = invalidAddr;
    }
}

} // namespace elfsim
