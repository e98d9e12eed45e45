/**
 * @file
 * Batch functional-warming kernel (Core::warmKernel).
 *
 * Replays a window of the compiled architectural stream through the
 * warm structures — caches, predictors, BTB hierarchy, BTB builder —
 * by iterating the compiled trace's event tables (runs, branch
 * events, memory events) instead of pulling every instruction through
 * the oracle window:
 *
 *   - the cache pass merges I-line transitions (computed from the
 *     run list and the configured L0I line size — line geometry is
 *     config-dependent, so transitions are never stored) with the
 *     memory-event list, in stream order, issuing exactly the
 *     instFetch/dataAccess calls the scalar loop would. A memory
 *     event's PC is its run's start PC plus its offset in the run;
 *   - the branch pass walks the branch-event list, catching the BTB
 *     builder up over branch-free gaps with
 *     BtbBuilder::retireSequentialRange, then training
 *     TAGE/ITTAGE/bimodal/RAS, the coupled predictors, and the BTB
 *     exactly like commit of an unpredicted branch. It tracks the PC
 *     from event to event and reads the static instruction at it.
 *
 * The two passes touch disjoint state (MemHierarchy vs the predictor/
 * BTB group), and each preserves stream order within its group, so
 * running each over the whole window in turn is state-equivalent to
 * the interleaved scalar loop. The hard invariant, enforced
 * catalog-wide by test_warm_kernel: serialized warm state after this
 * kernel is byte-identical to the scalar path
 * (Core::fastForwardScalar).
 */

#include <chrono>
#include <mutex>

#include "sim/core.hh"
#include "workload/compiled_trace.hh"

namespace elfsim {

namespace {

std::mutex warmStatsMtx;
WarmStats processWarm;

} // namespace

void
recordWarmStats(const WarmStats &d)
{
    std::lock_guard<std::mutex> lock(warmStatsMtx);
    processWarm.add(d);
}

WarmStats
processWarmStats()
{
    std::lock_guard<std::mutex> lock(warmStatsMtx);
    return processWarm;
}

Addr
Core::warmKernel(const CompiledTrace &tr, InstCount p0, InstCount kn,
                 Addr &last_line)
{
    ELFSIM_ASSERT(p0 == lastCommitOracleIdx &&
                      p0 + kn <= tr.size(),
                  "warm kernel window outside the compiled prefix");
    const auto wallStart = std::chrono::steady_clock::now();

    const Addr lineBytes = Addr(cfg.mem.l0i.lineBytes);
    const Addr lineMask = ~(lineBytes - 1);
    const Cycle base = coreStats.cycles;
    const SeqNum idx0 = lastCommitOracleIdx;
    const InstCount end = p0 + kn;

    // The oracle window may hold instructions generated ahead by the
    // preceding detailed run; the scalar loop would replay them (the
    // compiled stream is the lazy stream, so replay == table replay).
    // Drop them and re-serve from the tables after the seek below.
    if (!oracle->windowEmpty())
        oracle->retireUpTo(oracle->newest());

    // Table cursors.
    InstCount r = tr.runContaining(p0);
    InstCount m = tr.firstMemAtOrAfter(p0);
    InstCount b = tr.firstBranchAtOrAfter(p0);

    // PC of the branch pass's next unretired position, tracked
    // incrementally: between branch events the stream is strictly
    // sequential (runs end only at taken *branches*), and each
    // event's recorded next-PC is the PC after it — taken target or
    // fall-through alike. One search seeds it; no lookups after.
    Addr gapNextPC = tr.runPC(r) + instsToBytes(p0 - tr.runPos(r));

    std::uint64_t fetches = 0;
    const InstCount bAtEntry = b;

    // --- cache pass: line transitions merged with mem events --------
    InstCount pos = p0;
    while (pos < end) {
        const InstCount runEnd = tr.runEnd(r);
        const InstCount segEnd = std::min(runEnd, end);
        const InstCount runPos = tr.runPos(r);
        const Addr runPC = tr.runPC(r);
        // Every memory event left in this segment lies in run r.
        const auto dataAccess = [&](InstCount j) {
            const InstCount mpos = tr.memPos(j);
            mem->dataAccess(runPC + instsToBytes(mpos - runPos),
                            tr.memAddr(j), tr.memIsStore(j),
                            base + (mpos - p0) + 1);
        };
        Addr pc = runPC + instsToBytes(pos - runPos);
        while (pos < segEnd) {
            // Next position whose fetch leaves the current line.
            InstCount nf;
            const Addr line = pc & lineMask;
            if (line != last_line)
                nf = pos;
            else
                nf = pos + (line + lineBytes - pc) / instBytes;
            if (nf >= segEnd) {
                // No further fetch this segment: drain mem events up
                // to the segment end and move on.
                while (m < tr.numMemEvents() && tr.memPos(m) < segEnd)
                    dataAccess(m++);
                pos = segEnd;
                break;
            }
            // Mem events strictly before the fetch position precede
            // it; one *at* the fetch position follows the fetch
            // (scalar order: instFetch, then dataAccess) — it drains
            // on the next iteration or at segment end.
            while (m < tr.numMemEvents() && tr.memPos(m) < nf)
                dataAccess(m++);
            pc += instsToBytes(nf - pos);
            pos = nf;
            mem->instFetch(pc, base + (pos - p0) + 1);
            last_line = pc & lineMask;
            ++fetches;
        }
        if (pos == runEnd) {
            // The scalar loop resets its line register after every
            // taken branch so the target refetches.
            if (tr.runEndsTaken(r))
                last_line = invalidAddr;
            ++r;
        }
    }

    // --- branch pass: builder catch-up + commit training ------------
    InstCount gapStart = p0;
    while (b < tr.numBranchEvents() && tr.branchPos(b) < end) {
        const InstCount bpos = tr.branchPos(b);
        if (bpos > gapStart)
            builder->retireSequentialRange(gapNextPC, bpos - gapStart);
        const StaticInst *sp =
            prog.instAt(gapNextPC + instsToBytes(bpos - gapStart));
        ELFSIM_ASSERT(sp && sp->branch != BranchKind::None,
                      "branch-pass PC tracking diverged");
        const StaticInst &si = *sp;
        const bool taken = tr.branchTaken(b);
        const Addr target = tr.branchTarget(b);
        bank->commitBranch(si.pc, si.branch, taken, target,
                           TagePrediction{}, IttagePrediction{},
                           historyVisible(si));
        controller->coupledPredictors().trainCommit(
            si.pc, si.branch, taken, target, FetchMode::Coupled);
        if (taken) {
            btbHier->lookup(target);
        }
        builder->retire(si, taken, target);
        ++b;
        gapStart = bpos + 1;
        gapNextPC = target; // recorded next-PC either way
    }
    if (end > gapStart) {
        builder->retireSequentialRange(gapNextPC, end - gapStart);
        gapNextPC += instsToBytes(end - gapStart);
    }

    // Publish the scalar loop's end-of-window state.
    coreStats.cycles = base + kn;
    lastCommitOracleIdx = idx0 + kn;

    // Reposition the stream after the warmed window; the next
    // instruction served is idx0 + kn + 1 (from the tables inside
    // the prefix, resuming the saved generator state past it).
    oracle->seekTo(idx0 + kn + 1);

    warmStats_.kernelInsts += kn;
    warmStats_.branchEvents += b - bAtEntry;
    warmStats_.linesTouched += fetches;
    warmStats_.kernelSeconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallStart)
            .count();
    return gapNextPC;
}

} // namespace elfsim
