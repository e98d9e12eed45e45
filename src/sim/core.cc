#include "sim/core.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/stat_fields.hh"
#include "workload/compiled_trace.hh"

namespace elfsim {

Core::Core(const SimConfig &cfg, const Program &prog,
           std::shared_ptr<const CompiledTrace> trace)
    : cfg(cfg), prog(prog)
{
    // A non-zero run seed re-derives the stochastic-allocation seeds
    // so sweep jobs can decorrelate deterministically.
    if (this->cfg.rngSeed) {
        this->cfg.preds.tage.allocSeed =
            mix64(this->cfg.rngSeed, 0xa11c);
        this->cfg.preds.ittage.allocSeed =
            mix64(this->cfg.rngSeed, 0x17a6);
    }

    oracle = std::make_unique<OracleStream>(
        prog, defaultOracleWindowCap, std::move(trace));
    walker = std::make_unique<WrongPathWalker>(prog);
    instSupply = std::make_unique<InstSupply>(*oracle, *walker);
    mem = std::make_unique<MemHierarchy>(cfg.mem);
    bank = std::make_unique<PredictorBank>(this->cfg.preds);
    btbHier = std::make_unique<MultiBtb>(cfg.btb);
    builder = std::make_unique<BtbBuilder>(prog, *btbHier);
    ckpts = std::make_unique<CheckpointQueue>(cfg.checkpointEntries);
    faq = std::make_unique<Faq>(cfg.faqEntries);
    controller = std::make_unique<ElfController>(
        cfg.elfParams(), *mem, *instSupply, *faq, *ckpts, *bank,
        *btbHier);
    decodeStage = std::make_unique<DecodeStage>(cfg.fetch.width, *bank);
    memDep = std::make_unique<MemDepPredictor>();
    backendUnit = std::make_unique<Backend>(cfg.backend, *mem, *memDep);
    fetchToDecode = std::make_unique<BoundedQueue<DynInst>>(
        cfg.fetchBufferEntries);

    decodeStage->setObserver(controller.get());
    backendUnit->setCommitHook(
        [this](const DynInst &di) { onCommit(di); });

    // Startup behaves like a flush into the entry point.
    controller->applyRedirect(0, prog.entryPC());
}

bool
Core::historyVisible(const StaticInst &si) const
{
    // The NoDCF front-end sees every branch at fetch (pre-decode
    // bits); decoupled front-ends only see BTB-tracked branches, i.e.
    // unconditionals and observed-taken conditionals.
    if (cfg.variant == FrontendVariant::NoDcf)
        return true;
    return isUnconditional(si.branch) || builder->observedTaken(si.pc);
}

void
Core::onCommit(const DynInst &di)
{
    if (di.isBranch()) {
        // The payload is read before retireUpTo frees the checkpoint.
        ELFSIM_ASSERT(ckpts->has(di.checkpointId),
                      "committing branch seq=%llu holds no live "
                      "checkpoint",
                      (unsigned long long)di.seq);
        const CheckpointPayload &p = ckpts->payload(di.checkpointId);
        bank->commitBranch(di.pc(), di.si->branch, di.taken,
                           di.actualNext, p.tage, p.ittage,
                           di.historyPushed);
        controller->coupledPredictors().trainCommit(
            di.pc(), di.si->branch, di.taken, di.actualNext, di.mode);
    }
    builder->retire(*di.si, di.taken, di.actualNext);
    oracle->retireUpTo(di.oracleIdx);
    ckpts->retireUpTo(di.seq);
    lastCommitSeq = di.seq;
    lastCommitOracleIdx = di.oracleIdx;
    if (commitObserver)
        commitObserver(di);
}

DynInst *
Core::findInFlight(SeqNum seq)
{
    return backendUnit->findInFlightMutable(seq);
}

DynInst *
Core::findAnywhere(SeqNum seq)
{
    if (DynInst *di = findInFlight(seq))
        return di;
    // Still in the fetch-to-decode buffer?
    return findSeqInQueue(*fetchToDecode, seq);
}

void
Core::applyPatches(Redirect &redirect, Cycle now)
{
    // History-visibility corrections first: the prediction patches
    // below carry their own (consistent) coverage flag.
    for (const auto &[seq, covered] : controller->visibilityFixes()) {
        DynInst *di = findAnywhere(seq);
        if (di && di->isBranch() && di->mode == FetchMode::Coupled)
            di->historyPushed = covered;
    }
    controller->clearVisibilityFixes();

    for (const PredPatch &p : controller->patches()) {
        DynInst *di = findAnywhere(p.seq);
        // Squashed meanwhile, or not a branch: only branches carry a
        // prediction that execute and commit read.
        if (!di || !di->isBranch())
            continue;
        di->hasPrediction = true;
        di->predTaken = p.taken;
        di->predTarget = p.target;
        if (p.tage.valid)
            ckpts->payload(di->checkpointId).tage = p.tage;
        if (p.ittage.valid)
            ckpts->payload(di->checkpointId).ittage = p.ittage;
        if (p.clearStall)
            di->fetchStalled = false;
        if (p.historyPushed)
            di->historyPushed = true;
        resolveBranch(*di);
        if (p.fromBtbMiss && !di->completed) {
            // The resynchronization covered this stalled branch with
            // a BTB-miss guess block: the baseline front-end would
            // have recovered it at decode with the decoupled
            // predictors — do the same, late.
            di->hasPrediction = false;
            Redirect resteer;
            if (decodeStage->recoverMisfetch(now, *di, resteer))
                mergeRedirect(redirect, resteer);
        }
        if (di->completed && di->mispredict && !di->wrongPath) {
            // The branch already executed under its old prediction
            // and found it correct; under the adopted (DCF)
            // prediction it is a misprediction and must flush now.
            Redirect req;
            req.kind = RedirectKind::ExecMispredict;
            req.survivorSeq = di->seq;
            req.targetPC = di->actualNext;
            req.oracleCursor = di->oracleIdx + 1;
            req.atCycle = now;
            mergeRedirect(redirect, req);
        }
    }
    controller->clearPatches();
}

void
Core::replayHistory(const Redirect &r)
{
    bank->resetSpecToArch();
    backendUnit->forEachInFlight([&](const DynInst &di) {
        if (di.seq > r.survivorSeq || !di.isBranch())
            return;
        if (di.historyPushed) {
            bool bit;
            if (di.seq == r.survivorSeq &&
                r.kind == RedirectKind::ExecMispredict) {
                // The resolving branch: push the resolved outcome.
                bit = di.taken;
            } else {
                bit = di.hasPrediction ? di.predTaken : false;
            }
            bank->specBranch(di.pc(), di.si->branch, bit);
        } else if (isCall(di.si->branch)) {
            // RAS maintenance is decode-driven even for branches the
            // DCF never saw; every in-flight instruction here has
            // passed decode.
            bank->specRas().push(di.pc() + instBytes);
        } else if (isReturn(di.si->branch)) {
            bank->specRas().pop();
        }
    });
}

void
Core::applyRedirect(Redirect r)
{
    if (!r.pending())
        return;

    if (r.kind == RedirectKind::Divergence &&
        r.survivorSeq <= lastCommitSeq) {
        // A small ROB can commit coupled instructions before the
        // catching-up DCF produces their records, so the tracker can
        // pair a survivor that has already retired, maybe with
        // younger instructions. Resuming behind the committed state
        // would replay retired instructions, and resuming off the
        // architectural path after it would leave no branch in flight
        // to recover: flush to the last commit and resume at the next
        // architectural instruction.
        r.survivorSeq = lastCommitSeq;
        r.oracleCursor = lastCommitOracleIdx + 1;
        r.targetPC = oracle->pcAt(r.oracleCursor);
    }

    if (r.kind == RedirectKind::ExecMispredict) {
        // ELF: a branch fetched in coupled mode may not flush until
        // its checkpoint payload is populated from FAQ information —
        // unless it reached the ROB head (Section IV-D1). The
        // idealized policy skips the gate entirely.
        DynInst *br = findInFlight(r.survivorSeq);
        if (cfg.payloadPolicy != PayloadPolicy::Ideal && br &&
            br->mode == FetchMode::Coupled &&
            br->checkpointId != noCheckpoint &&
            ckpts->has(br->checkpointId) &&
            !ckpts->payloadReady(br->checkpointId) &&
            !backendUnit->atRobHead(br->seq)) {
            br->flushPending = true;
            heldRedirect = r;
            ++coreStats.pendingFlushWaits;
            return;
        }
        if (br)
            br->flushPending = false;
        if (br && br->seq == r.survivorSeq) {
            // Correct the branch's prediction to its resolution:
            // later flushes replay in-flight history bits from the
            // prediction fields, and this branch's wrong bit must not
            // be re-injected after its own recovery.
            //
            // A branch the coupled fetcher *stalled* on never had a
            // prediction: resolving it at execute is a (costly)
            // resynchronization event, not a misprediction.
            if (br->mispredict && !br->fetchStalled)
                br->wasMispredicted = true;
            if (br->fetchStalled)
                ++coreStats.stallResteers;
            br->hasPrediction = true;
            br->predTaken = br->taken;
            br->predTarget = br->actualNext;
            br->mispredict = false;
            br->fetchStalled = false;
        }
    }

    switch (r.kind) {
      case RedirectKind::ExecMispredict:
        ++coreStats.execFlushes;
        measureRedirectCycle = coreStats.cycles;
        break;
      case RedirectKind::MemOrder:
        ++coreStats.memOrderFlushes;
        break;
      case RedirectKind::DecodeResteer:
        ++coreStats.decodeResteers;
        break;
      case RedirectKind::Divergence:
        ++coreStats.divergenceFlushes;
        break;
      default:
        break;
    }

    backendUnit->squashYoungerThan(r.survivorSeq);
    while (!fetchToDecode->empty() &&
           fetchToDecode->back().seq > r.survivorSeq)
        fetchToDecode->popBack(1);
    ckpts->squashYoungerThan(r.survivorSeq);

    replayHistory(r);
    if (r.oracleCursor != 0)
        instSupply->redirect(r.oracleCursor);

    faq->clear();
    controller->applyRedirect(r.atCycle, r.targetPC);
}

void
Core::tick()
{
    step();
}

bool
Core::canFetch() const
{
    return fetchToDecode->freeSlots() >= cfg.fetch.width;
}

bool
Core::step()
{
    ++coreStats.cycles;
    const Cycle now = coreStats.cycles;

    Redirect redirect = heldRedirect;
    heldRedirect = Redirect{};

    bool acted = backendUnit->tick(now, redirect);

    // Decode (gated by back-end capacity), in place at the front of
    // the fetch buffer; each decoded instruction then moves once,
    // into the back end.
    if (backendUnit->admitGroup(cfg.fetch.width)) {
        Redirect resteer;
        const unsigned decoded =
            decodeStage->tick(now, *fetchToDecode, resteer);
        for (unsigned i = 0; i < decoded; ++i) {
            backendUnit->accept(std::move(fetchToDecode->front()), now);
            fetchToDecode->dropFront();
        }
        mergeRedirect(redirect, resteer);
        acted |= decoded > 0;
    }

    // Fetch, straight into the fetch buffer. The controller always
    // ticks (resynchronization and divergence detection must run
    // every cycle); the engines only produce instructions when the
    // buffer has room.
    const std::size_t oldTail = fetchToDecode->size();
    acted |= controller->fetchTick(now, *fetchToDecode, redirect,
                                   canFetch());
    const std::size_t fetched = fetchToDecode->size() - oldTail;
    for (std::size_t i = oldTail; i < fetchToDecode->size(); ++i) {
        DynInst &di = fetchToDecode->at(i);
        // ELF coupled-mode instances: the catching-up DCF will push
        // history bits for the branches its BTB tracks.
        if (isElf(cfg.variant) && di.mode == FetchMode::Coupled &&
            di.isBranch() && !di.fetchStalled)
            di.historyPushed = historyVisible(*di.si);
        di.readyAt = now + cfg.fetch.fetchToDecode;
    }

    if (fetched > 0 && measureRedirectCycle != 0) {
        coreStats.redirectToFetchTotal += now - measureRedirectCycle;
        ++coreStats.redirectToFetchCount;
        measureRedirectCycle = 0;
    }

    acted |= controller->dcfTick(now);
    acted |= controller->prefetchTick(now, fetched == 0);
    applyPatches(redirect, now);
    // A redirect acts; one held for its checkpoint payload (ELF) is
    // retried, and counted, every cycle.
    acted |= redirect.pending();
    applyRedirect(redirect);
    return acted;
}

Cycle
Core::nextWake() const
{
    // Every comparison of a stored cycle against the clock in the
    // tick path is a wake source. After a cycle in which no stage
    // acted, the next one that can act is the earliest of:
    //  - the next completion event (Backend calendar);
    //  - the oldest undispatched instruction's readyAt, when the IQ
    //    and LSQ have room (Backend::dispatch);
    //  - the fetch-buffer front's readyAt, when the back end can
    //    admit a group (DecodeStage::tick);
    //  - the FAQ head's genCycle + bp1ToFe (the decoupled engine,
    //    and coupled ELF consuming the FAQ);
    //  - the fetching engine's busyUntil (I-side fill, taken-branch
    //    bubbles);
    //  - the DCF bubble countdown (DecoupledFetcher::stallUntil);
    //  - the oldest in-flight instruction prefetch, when that queue
    //    is full (ElfController::prefetchTick).
    // Everything else waits on another stage's action.
    Cycle wake = std::min(backendUnit->nextWake(),
                          controller->nextWake(coreStats.cycles,
                                               canFetch()));
    if (!fetchToDecode->empty() &&
        backendUnit->canAccept(cfg.fetch.width))
        wake = std::min(wake, fetchToDecode->front().readyAt);
    return wake;
}

void
Core::skipIdle(Cycle until)
{
    const Cycle now = coreStats.cycles;
    const Cycle n = until - now;
    backendUnit->skipIdle(cfg.fetch.width, n);
    controller->skipIdle(now, n, canFetch());
    coreStats.cycles = until;
}

void
Core::squashToCommitted()
{
    // A flush whose survivor is the last committed instruction: every
    // in-flight instruction is younger and goes away, so the usual
    // history replay degenerates to resetSpecToArch().
    backendUnit->squashYoungerThan(lastCommitSeq);
    while (!fetchToDecode->empty() &&
           fetchToDecode->back().seq > lastCommitSeq)
        fetchToDecode->popBack(1);
    ckpts->squashYoungerThan(lastCommitSeq);
    bank->resetSpecToArch();
    heldRedirect = Redirect{};
    measureRedirectCycle = 0;
    instSupply->redirect(lastCommitOracleIdx + 1);
    faq->clear();
    controller->applyRedirect(coreStats.cycles,
                              oracle->pcAt(lastCommitOracleIdx + 1));
}

void
Core::functionalWarm(InstCount n, bool use_kernel)
{
    ELFSIM_ASSERT(backendUnit->empty() && fetchToDecode->empty(),
                  "fast-forward with in-flight instructions "
                  "(squashToCommitted first)");

    const Addr lineMask = ~(Addr(cfg.mem.l0i.lineBytes) - 1);
    Addr lastLine = invalidAddr;
    Addr resumePC = invalidAddr;

    // Batch warming kernel (sim/warm_kernel.cc): when the window
    // starts inside the compiled prefix, warm as much of it as the
    // prefix covers by iterating the trace's event tables — state-
    // identical to the scalar loop below, at memory-scan speed.
    // fastForwardScalar() skips it, so the scalar loop reads the same
    // tables one instruction at a time through the oracle stream;
    // test_warm_kernel compares the two.
    InstCount done = 0;
    if (const CompiledTrace *tr = oracle->backingTrace();
        tr && use_kernel) {
        const InstCount p0 = lastCommitOracleIdx;
        const InstCount kn =
            p0 < tr->size() ? std::min(n, tr->size() - p0) : 0;
        if (kn > 0) {
            resumePC = warmKernel(*tr, p0, kn, lastLine);
            done = kn;
        }
    }
    warmStats_.scalarInsts += n - done;

    // Scalar warming for whatever the kernel did not cover (lazy
    // streams, the tail past the compiled prefix, fastForwardScalar).
    for (InstCount i = done; i < n; ++i) {
        const SeqNum idx = lastCommitOracleIdx + 1;
        const OracleInst &oi = oracle->at(idx);
        const StaticInst &si = *oi.si;

        // One synthetic cycle per instruction: the caches' absolute
        // readyCycle/LRU bookkeeping needs a monotonic clock shared
        // with the detailed windows.
        ++coreStats.cycles;
        const Cycle now = coreStats.cycles;

        // Warm the instruction side once per cache line (sequential
        // fetch within a line is free in the detailed model too).
        const Addr line = si.pc & lineMask;
        if (line != lastLine) {
            mem->instFetch(si.pc, now);
            lastLine = line;
        }
        if (si.isMemInst())
            mem->dataAccess(si.pc, oi.memAddr, si.isStore(), now);

        if (si.branch != BranchKind::None) {
            // Train exactly like commit of an unpredicted branch:
            // invalid TAGE/ITTAGE predictions make commitBranch
            // re-predict on the architectural history before training.
            bank->commitBranch(si.pc, si.branch, oi.taken, oi.nextPC,
                               TagePrediction{}, IttagePrediction{},
                               historyVisible(si));
            controller->coupledPredictors().trainCommit(
                si.pc, si.branch, oi.taken, oi.nextPC,
                FetchMode::Coupled);
            if (oi.taken) {
                // Model the DCF probing the BTB at the target: warms
                // hit/promotion state for the upcoming regions.
                btbHier->lookup(oi.nextPC);
                lastLine = invalidAddr;
            }
        }
        builder->retire(si, oi.taken, oi.nextPC);
        oracle->retireUpTo(idx);
        lastCommitOracleIdx = idx;
        resumePC = oi.nextPC;
    }

    // Capture the generator resume state for checkpointing *now*:
    // this is the only moment the live generator state corresponds
    // exactly to consumedInsts() — the restart below (and any pcAt)
    // generates ahead and advances it.
    ffGenStateValid =
        oracle->windowEmpty() && oracle->genStateKnown();
    if (ffGenStateValid)
        ffGenState = oracle->genState();

    // Restart the front-end at the new position, exactly like a
    // flush into it. Speculative state re-derives from architectural.
    bank->resetSpecToArch();
    instSupply->redirect(lastCommitOracleIdx + 1);
    faq->clear();
    if (resumePC == invalidAddr)
        resumePC = oracle->pcAt(lastCommitOracleIdx + 1);
    controller->applyRedirect(coreStats.cycles, resumePC);
}

namespace {

/**
 * The counters a warm-state payload leads with, in layout order. A
 * load fills a copy: the core applies it only once the whole payload
 * has loaded, and the ELF counters only after the restart.
 */
struct WarmCounters
{
    CoreStats core;
    BackendStats backend;
    ElfStats elf;
    /** Salts wrong-path memory addresses; resumed runs must continue
     *  it, not restart it. */
    SeqNum seqCount = 0;
    std::uint64_t wrongPathInsts = 0;

    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        stats::checkpoint(ar, self.core);
        stats::checkpoint(ar, self.backend);
        stats::checkpoint(ar, self.elf);
        ar(self.seqCount, self.wrongPathInsts);
    }
};

} // namespace

template <typename Self, typename Ar>
void
Core::visitWarmStructures(Self &self, Ar &ar)
{
    ar(*self.bank, *self.btbHier, *self.builder, *self.mem, *self.memDep,
       self.controller->coupledPredictors());
}

void
Core::saveWarmState(Serializer &s) const
{
    // Cumulative counters first. The cycle counter must travel with
    // the caches: their readyCycle values are absolute cycles.
    s(WarmCounters{coreStats, backendUnit->stats(), controller->stats(),
                   instSupply->seqCount(), instSupply->wrongPathInsts()});
    visitWarmStructures(*this, s);
}

void
Core::loadWarmState(Deserializer &d, InstCount position,
                    const OracleGen *gen_state)
{
    ELFSIM_ASSERT(backendUnit->empty() && fetchToDecode->empty(),
                  "warm-state restore with in-flight instructions");

    WarmCounters c;
    d(c);
    visitWarmStructures(*this, d);
    d.expectEnd();

    coreStats = c.core;
    backendUnit->restoreStats(c.backend);
    instSupply->restoreCounters(c.seqCount, c.wrongPathInsts);
    lastCommitSeq = c.seqCount;
    lastCommitOracleIdx = position;

    // Reposition the stream and restart the engines exactly like a
    // flush into the checkpoint position. The window may still hold
    // instructions generated ahead of the commit point (fetch runs
    // ahead); drop them — they replay from the new position.
    if (!oracle->windowEmpty())
        oracle->retireUpTo(oracle->newest());
    if (gen_state)
        oracle->seekTo(position + 1, *gen_state);
    else
        oracle->seekTo(position + 1);
    instSupply->redirect(position + 1);
    heldRedirect = Redirect{};
    measureRedirectCycle = 0;
    faq->clear();
    controller->applyRedirect(coreStats.cycles,
                              oracle->pcAt(position + 1));
    // The checkpoint was saved *after* the equivalent restart, so its
    // counters already include that restart's bookkeeping (e.g. the
    // ELF coupled-period bump); restoring them after applyRedirect
    // cancels the double count.
    controller->restoreStats(c.elf);
}

void
Core::debugDump() const
{
    std::fprintf(stderr,
                 "core state @%llu: committed=%llu mode=%d faq=%zu "
                 "f2d=%zu rename=%zu rob=%zu iq=%zu lsq=%zu ckpts=%zu "
                 "wrongPath=%d cursor=%llu held=%d\n",
                 (unsigned long long)coreStats.cycles,
                 (unsigned long long)committed(),
                 int(controller->mode()), faq->size(),
                 fetchToDecode->size(), backendUnit->renamePipeSize(),
                 backendUnit->robSize(), backendUnit->iqSize(),
                 backendUnit->lsqSize(), ckpts->size(),
                 int(instSupply->onWrongPath()),
                 (unsigned long long)instSupply->cursor(),
                 int(heldRedirect.pending()));
    if (const DynInst *h = backendUnit->robHead()) {
        std::fprintf(stderr,
                     "  rob head: seq=%llu %s wp=%d issued=%d "
                     "completed=%d flushPending=%d mispred=%d "
                     "stalled=%d mode=%d src=(%llu,%llu) wait=%llu\n",
                     (unsigned long long)h->seq,
                     h->si->disasm().c_str(), int(h->wrongPath),
                     int(h->issued), int(h->completed),
                     int(h->flushPending), int(h->mispredict),
                     int(h->fetchStalled), int(h->mode),
                     (unsigned long long)h->srcProducer0,
                     (unsigned long long)h->srcProducer1,
                     (unsigned long long)h->waitStore);
    }
    if (controller->coupledEngine().active())
        std::fprintf(stderr, "  coupled engine active\n");
}

void
Core::run(InstCount max_insts)
{
    const InstCount target = committed() + max_insts;
    InstCount lastCommitted = committed();
    Cycle lastProgress = coreStats.cycles;
    while (committed() < target) {
        if (!step()) {
            // Nothing acted: every cycle before the next wake is this
            // same idle cycle, so skip them. The skip stops at the
            // progress limit, so the panic fires on the cycle it
            // would when ticking.
            const Cycle wake = nextWake();
            const Cycle until =
                std::min(wake - 1, lastProgress + noProgressCycles + 1);
            if (wake > coreStats.cycles && until > coreStats.cycles)
                skipIdle(until);
        }
        if (committed() != lastCommitted) {
            lastCommitted = committed();
            lastProgress = coreStats.cycles;
        } else if (coreStats.cycles - lastProgress > noProgressCycles) {
            debugDump();
            ELFSIM_PANIC("no forward progress for 100k cycles "
                         "(workload %s, variant %s)",
                         prog.name().c_str(),
                         variantName(cfg.variant));
        }
    }
}

} // namespace elfsim
