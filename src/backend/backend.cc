#include "backend/backend.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace elfsim {

Backend::Backend(const BackendParams &params, MemHierarchy &mem,
                 MemDepPredictor &mdp)
    : params(params), mem(mem), mdp(mdp), rob(params.robEntries),
      lsq(params.lsqEntries), maskWords((params.robEntries + 63) / 64),
      readyMask(maskWords, 0),
      waiters(std::size_t(params.robEntries) * maskWords, 0),
      calHorizon(params.issueToExec +
                 std::max({mem.worstLoadLatency(), params.mulLatency,
                           params.divLatency, params.fpLatency,
                           Cycle(1)})),
      calBuckets(std::bit_ceil(std::size_t(calHorizon) + 1)),
      calHead(calBuckets, noEvent), calBusy((calBuckets + 63) / 64, 0),
      lastProducer(numArchRegs, 0), lastProducerPos(numArchRegs, 0)
{
    // Every pending event was issued within the last horizon cycles
    // (stale events of squashed instructions included: validation
    // drops them only when their cycle comes), so the pool holds an
    // issue width of events per horizon cycle, and so does the batch
    // of one cycle — steady state never allocates.
    const std::size_t pool = std::size_t(params.issueWidth) * calHorizon;
    calEvents.reserve(pool);
    compDue.reserve(pool);
}

void
Backend::clearCalendar()
{
    std::fill(calHead.begin(), calHead.end(), noEvent);
    std::fill(calBusy.begin(), calBusy.end(), 0);
    calEvents.clear();
    calFree = noEvent;
    calPending = 0;
}

void
Backend::schedule(Cycle cycle, SeqNum seq, std::uint32_t pos, Cycle now)
{
    // An event due this cycle or earlier completes next cycle, as it
    // did when the batch was "every event due by now": this cycle's
    // completions have already run.
    cycle = std::max(cycle, now + 1);
    ELFSIM_ASSERT(cycle - now <= calHorizon,
                  "completion at cycle %llu, issued at %llu, lies past "
                  "the calendar horizon of %llu cycles",
                  (unsigned long long)cycle, (unsigned long long)now,
                  (unsigned long long)calHorizon);
    const std::size_t b = cycle & (calBuckets - 1);
    // Recycle a drained event, or take the pool's next unused one.
    std::uint32_t e = calFree;
    if (e != noEvent) {
        calFree = calEvents[e].next;
        calEvents[e] = {seq, pos, calHead[b]};
    } else {
        ELFSIM_ASSERT(calEvents.size() < calEvents.capacity(),
                      "completion calendar pool exhausted");
        e = std::uint32_t(calEvents.size());
        calEvents.push_back({seq, pos, calHead[b]});
    }
    calHead[b] = e;
    calBusy[b / 64] |= std::uint64_t(1) << (b % 64);
    ++calPending;
}

Cycle
Backend::firstEventFrom(Cycle from) const
{
    if (calPending == 0)
        return neverCycle;
    // Ring order from @a from's bucket: the bits of its word from the
    // bucket up first, the ones below it last (as issue() walks the
    // ready set).
    const std::size_t start = from & (calBuckets - 1);
    const std::size_t words = calBusy.size();
    std::size_t w = start / 64;
    for (std::size_t k = 0; k <= words; ++k) {
        std::uint64_t bits = calBusy[w];
        if (k == 0)
            bits &= ~std::uint64_t(0) << (start % 64);
        if (bits != 0) {
            const std::size_t b = w * 64 + std::countr_zero(bits);
            return from + ((b - start) & (calBuckets - 1));
        }
        if (++w == words)
            w = 0;
    }
    return neverCycle;
}

Cycle
Backend::nextWake() const
{
    Cycle wake = firstEventFrom(drainedThrough + 1);
    if (robCount < rob.size()) {
        const DynInst &di = rob.at(robCount);
        if (iqCount < params.iqEntries &&
            !(di.si->isMemInst() && lsq.full()))
            wake = std::min(wake, di.readyAt);
    }
    return wake;
}

bool
Backend::canAccept(unsigned n) const
{
    return rob.size() + n <= params.robEntries;
}

bool
Backend::admitGroup(unsigned n)
{
    if (canAccept(n))
        return true;
    ++st.robFullCycles;
    return false;
}

void
Backend::accept(DynInst &&di, Cycle now)
{
    di.readyAt = now + params.decodeToDispatch;
    ELFSIM_ASSERT(rob.empty() || rob.back().seq < di.seq,
                  "out-of-order accept");
    rob.push(std::move(di));
}

bool
Backend::producerPending(SeqNum seq, std::uint32_t pos) const
{
    // The recorded ring position is revisited instead of searching the
    // ROB: if the slot no longer holds the producer's seq, the
    // producer has committed (a squashed producer implies this
    // consumer was squashed too), i.e. the operand is ready. That
    // holds whether the slot is empty or already reused by a younger
    // accepted instruction.
    if (seq == 0)
        return false;
    const DynInst &p = rob.atPos(pos);
    return p.seq == seq && !p.completed;
}

bool
Backend::operandsReady(const DynInst &di) const
{
    // waitStore is set only for loads the memory-dependence filter
    // holds behind an older store.
    return !producerPending(di.srcProducer0, di.srcPos0) &&
           !producerPending(di.srcProducer1, di.srcPos1) &&
           !producerPending(di.waitStore, di.waitStorePos);
}

void
Backend::wake(std::uint32_t pos)
{
    std::uint64_t *row = &waiters[std::size_t(pos) * maskWords];
    for (std::size_t w = 0; w < maskWords; ++w) {
        std::uint64_t bits = row[w];
        row[w] = 0;
        while (bits != 0) {
            const std::size_t c = w * 64 + std::countr_zero(bits);
            bits &= bits - 1;
            // A squashed consumer's bit may name a slot that is now
            // empty or owned by an unrelated instruction, possibly one
            // not yet dispatched: readiness is re-derived from the
            // owner's own producer seqs.
            if (!dispatchedPos(c))
                continue;
            const DynInst &di = rob.atPos(c);
            if (!di.issued && operandsReady(di))
                markReady(c);
        }
    }
}

Cycle
Backend::execLatency(const DynInst &di, Cycle now)
{
    switch (di.si->cls) {
      case InstClass::IntMul:
        return params.mulLatency;
      case InstClass::IntDiv:
        return params.divLatency;
      case InstClass::FloatOp:
        return params.fpLatency;
      case InstClass::Load:
        // Address generated at EXE; the access starts there. The
        // load-to-use latency comes from the hierarchy — wrong-path
        // loads access (and pollute) it too.
        return mem.dataAccess(di.pc(), di.memAddr, false,
                              now + params.issueToExec);
      default:
        return 1;
    }
}

bool
Backend::dispatch(Cycle now)
{
    unsigned n = 0;
    while (n < params.dispatchWidth && robCount < rob.size()) {
        DynInst &di = rob.at(robCount);
        if (di.readyAt > now)
            break;
        if (iqCount >= params.iqEntries)
            break;
        if (di.si->isMemInst() && lsq.full())
            break;
        ++n;

        // Record producers (seq + ROB slot) at rename.
        for (unsigned s = 0; s < 2; ++s) {
            const RegIndex r = di.si->srcRegs[s];
            const SeqNum p = r < numArchRegs ? lastProducer[r] : 0;
            const std::uint32_t pos =
                r < numArchRegs ? lastProducerPos[r] : 0;
            if (s == 0) {
                di.srcProducer0 = p;
                di.srcPos0 = pos;
            } else {
                di.srcProducer1 = p;
                di.srcPos1 = pos;
            }
        }

        // Memory-dependence filter: the load waits for the youngest
        // older in-flight store with the recorded PC. Every dispatched
        // store is in the LSQ.
        if (di.isLoad()) {
            const Addr storePC = mdp.storeFor(di.pc());
            if (storePC != invalidAddr) {
                for (std::size_t i = lsq.size(); i-- > 0;) {
                    const LsqEntry &s = lsq.at(i);
                    if (s.store && s.pc == storePC &&
                        !rob.atPos(s.pos).completed) {
                        di.waitStore = s.seq;
                        di.waitStorePos = s.pos;
                        break;
                    }
                }
            }
        }

        const std::uint32_t pos = std::uint32_t(rob.posOf(robCount));
        ++robCount;
        if (di.si->destReg < numArchRegs) {
            lastProducer[di.si->destReg] = di.seq;
            lastProducerPos[di.si->destReg] = pos;
        }
        if (di.si->isMemInst())
            lsq.push({di.seq, pos, di.isStore(), di.wrongPath, di.pc(),
                      di.memAddr / 8});
        ++iqCount;

        // Register with every producer still in flight (a producer
        // named by both sources sets the same bit twice); with none,
        // the instruction is ready for select from the next cycle.
        const std::uint64_t bit = std::uint64_t(1) << (pos % 64);
        bool waiting = false;
        const auto await = [&](SeqNum p, std::uint32_t p_pos) {
            if (producerPending(p, p_pos)) {
                waiters[std::size_t(p_pos) * maskWords + pos / 64] |= bit;
                waiting = true;
            }
        };
        await(di.srcProducer0, di.srcPos0);
        await(di.srcProducer1, di.srcPos1);
        await(di.waitStore, di.waitStorePos);
        if (!waiting)
            markReady(pos);
    }
    return n > 0;
}

bool
Backend::issue(Cycle now)
{
    if (robCount == 0)
        return false;
    unsigned issued = 0;
    unsigned alu = 0, muldiv = 0, ldst = 0, simd = 0;

    // Select over the ready set only, oldest first: ring order from
    // the head position. The head's word is visited twice, its bits
    // from the head up first and the ones below the head last. An
    // entry denied a functional unit stays ready for the next cycle.
    const std::size_t head = rob.posOf(0);
    const std::uint64_t fromHead = ~std::uint64_t(0) << (head % 64);
    std::size_t w = head / 64;
    for (std::size_t k = 0; k <= maskWords; ++k) {
        std::uint64_t bits = readyMask[w];
        if (k == 0)
            bits &= fromHead;
        else if (k == maskWords)
            bits &= ~fromHead;
        while (bits != 0) {
            const unsigned b = std::countr_zero(bits);
            bits &= bits - 1;
            const std::size_t pos = w * 64 + b;
            DynInst *di = &rob.atPos(pos);
            ELFSIM_ASSERT(dispatchedPos(pos) && !di->issued,
                          "ready set names a dead or issued ROB slot");

            // Functional unit availability.
            bool fuOk = false;
            switch (di->si->cls) {
              case InstClass::IntMul:
              case InstClass::IntDiv:
                fuOk = muldiv < params.numMulDiv && alu < params.numAlu;
                if (fuOk) {
                    ++muldiv;
                    ++alu;
                }
                break;
              case InstClass::FloatOp:
                fuOk = simd < params.numSimd;
                if (fuOk)
                    ++simd;
                break;
              case InstClass::Load:
              case InstClass::Store:
                fuOk = ldst < params.numLdSt;
                if (fuOk)
                    ++ldst;
                break;
              default: // ALU, branches, nops
                fuOk = alu < params.numAlu;
                if (fuOk)
                    ++alu;
                break;
            }
            if (!fuOk)
                continue;

            readyMask[w] &= ~(std::uint64_t(1) << b);
            --iqCount;
            di->issued = true;
            const Cycle lat = di->isStore() ? 1 : execLatency(*di, now);
            di->completeCycle = now + params.issueToExec + lat - 1;
            schedule(di->completeCycle, di->seq, std::uint32_t(pos), now);
            if (++issued == params.issueWidth)
                return true;
        }
        if (++w == maskWords)
            w = 0;
    }
    return issued > 0;
}

bool
Backend::complete(Cycle now, Redirect &redirect)
{
    // Only a skip of idle cycles separates two calls; it must never
    // pass a cycle with events due.
    ELFSIM_ASSERT(now == drainedThrough + 1 || calPending == 0 ||
                      (now > drainedThrough &&
                       firstEventFrom(drainedThrough + 1) >= now),
                  "completion event left due before cycle %llu",
                  (unsigned long long)now);
    drainedThrough = now;

    // Take this cycle's bucket. The batch is sorted to seq order so
    // instructions complete in exactly the ROB (age) order the old
    // full-ROB scan used.
    const std::size_t b = now & (calBuckets - 1);
    if (calHead[b] == noEvent)
        return false;
    compDue.clear();
    std::uint32_t last = noEvent;
    for (std::uint32_t e = calHead[b]; e != noEvent;
         e = calEvents[e].next) {
        compDue.push_back(calEvents[e]);
        last = e;
    }
    calEvents[last].next = calFree;
    calFree = calHead[b];
    calHead[b] = noEvent;
    calBusy[b / 64] &= ~(std::uint64_t(1) << (b % 64));
    calPending -= compDue.size();
    std::sort(compDue.begin(), compDue.end(),
              [](const CompletionEvent &a, const CompletionEvent &b) {
                  return a.seq < b.seq;
              });

    for (const CompletionEvent &ev : compDue) {
        // Validate against the live ROB: squashes leave ghost events,
        // and a squashed-then-replayed instruction can even reuse the
        // same seq and slot with a different completion cycle. Any
        // mismatch means this event's instruction is gone; its
        // replacement (if any) carries its own event.
        if (!dispatchedPos(ev.pos))
            continue;
        DynInst &di = rob.atPos(ev.pos);
        if (di.seq != ev.seq || !di.issued || di.completed ||
            di.completeCycle > now)
            continue;
        di.completed = true;
        wake(ev.pos);

        // Store-to-load order violation check: a younger load that
        // already executed with an overlapping address speculated
        // past this store. The oldest such load is the flush point.
        if (di.isStore() && !di.wrongPath) {
            const Addr granule = di.memAddr / 8;
            for (std::size_t i = 0; i < lsq.size(); ++i) {
                const LsqEntry &l = lsq.at(i);
                if (l.seq <= di.seq || l.store || l.wrongPath ||
                    l.granule != granule)
                    continue;
                const DynInst &ld = rob.atPos(l.pos);
                if (ld.completed) {
                    mdp.train(ld.pc(), di.pc());
                    ++st.memOrderFlushes;
                    Redirect req;
                    req.kind = RedirectKind::MemOrder;
                    req.survivorSeq = ld.seq - 1;
                    req.targetPC = ld.pc();
                    req.oracleCursor = ld.oracleIdx;
                    req.atCycle = now;
                    mergeRedirect(redirect, req);
                    break;
                }
            }
        }

        // Branch resolution.
        if (di.isBranch() && !di.wrongPath &&
            (di.mispredict || di.fetchStalled)) {
            Redirect req;
            req.kind = RedirectKind::ExecMispredict;
            req.survivorSeq = di.seq;
            req.targetPC = di.actualNext;
            req.oracleCursor = di.oracleIdx + 1;
            req.atCycle = now;
            mergeRedirect(redirect, req);
        }
    }
    return true;
}

bool
Backend::commit(Cycle now)
{
    unsigned n = 0;
    while (n < params.commitWidth && robCount > 0) {
        DynInst &head = rob.front();
        if (!head.completed)
            break;
        // A flush triggered by this instruction has not been applied
        // yet (ELF payload-pending): it must not retire.
        if (head.flushPending)
            break;
        ELFSIM_ASSERT(!head.wrongPath,
                      "wrong-path instruction reached commit: seq=%llu "
                      "pc=0x%llx mode=%d stalled=%d haspred=%d "
                      "predTaken=%d %s",
                      (unsigned long long)head.seq,
                      (unsigned long long)head.pc(), int(head.mode),
                      int(head.fetchStalled), int(head.hasPrediction),
                      int(head.predTaken), head.si->disasm().c_str());

        if (head.isStore())
            mem.dataAccess(head.pc(), head.memAddr, true, now);

        ++st.committed;
        if (head.mode == FetchMode::Coupled)
            ++st.coupledCommitted;
        if (head.isBranch()) {
            ++st.committedBranches;
            const bool mispredicted =
                head.wasMispredicted || head.mispredict ||
                head.taken != head.predTaken;
            if (head.si->branch == BranchKind::CondDirect) {
                if (mispredicted)
                    ++st.condMispredicts;
            } else if (mispredicted) {
                ++st.targetMispredicts;
            }
        }

        if (commitHook)
            commitHook(head);

        if (!lsq.empty() && lsq.front().seq == head.seq)
            lsq.dropFront();
        rob.dropFront();
        --robCount;
        ++n;
    }
    return n > 0;
}

bool
Backend::tick(Cycle now, Redirect &redirect)
{
    bool acted = commit(now);
    acted |= complete(now, redirect);
    acted |= issue(now);
    acted |= dispatch(now);
    return acted;
}

void
Backend::rebuildScoreboard()
{
    // Only dispatched (ROB) instructions define producers: rename-
    // pipe instructions re-register their destinations when they
    // dispatch, in order — pre-registering them here would make
    // older instructions read younger (or their own) producers. The
    // same pass recounts the unissued survivors and their ready set;
    // their producers are older, so their waiter registrations
    // survive the squash too.
    std::fill(lastProducer.begin(), lastProducer.end(), 0);
    std::fill(lastProducerPos.begin(), lastProducerPos.end(), 0);
    std::fill(readyMask.begin(), readyMask.end(), 0);
    iqCount = 0;
    for (std::size_t i = 0; i < robCount; ++i) {
        const std::size_t pos = rob.posOf(i);
        const DynInst &di = rob.atPos(pos);
        if (di.si->destReg < numArchRegs) {
            lastProducer[di.si->destReg] = di.seq;
            lastProducerPos[di.si->destReg] = std::uint32_t(pos);
        }
        if (!di.issued) {
            ++iqCount;
            if (operandsReady(di))
                markReady(pos);
        }
    }
}

void
Backend::squashYoungerThan(SeqNum survivor_seq)
{
    while (!rob.empty() && rob.back().seq > survivor_seq)
        rob.popBack(1);
    robCount = std::min(robCount, rob.size());
    while (!lsq.empty() && lsq.back().seq > survivor_seq)
        lsq.popBack(1);
    rebuildScoreboard();
    // With nothing left in flight every pending event is a ghost.
    // Dropping them lets the clock jump (fast-forward, warm-state
    // restore) with an empty calendar.
    if (rob.empty() && calPending != 0)
        clearCalendar();
}

bool
Backend::atRobHead(SeqNum seq) const
{
    return robCount > 0 && rob.front().seq == seq;
}

} // namespace elfsim
