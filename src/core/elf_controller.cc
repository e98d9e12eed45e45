#include "core/elf_controller.hh"

#include <algorithm>

#include "common/logging.hh"

namespace elfsim {

ElfController::ElfController(const ElfControllerParams &params,
                             MemHierarchy &mem, InstSupply &supply,
                             Faq &faq, CheckpointQueue &ckpts,
                             PredictorBank &bank, MultiBtb &btb)
    : params(params), mem(mem), supply(supply), faq(faq), ckpts(ckpts),
      bank(bank), coupledPreds(params.coupledPreds),
      divTracker(params.divergence),
      prefetchInflight(params.maxInstPrefetch ? params.maxInstPrefetch
                                              : 1)
{
    if (params.variant == FrontendVariant::NoDcf) {
        policy = std::make_unique<NoDcfPolicy>(bank, ckpts);
    } else {
        policy = std::make_unique<ElfCoupledPolicy>(
            params.variant, coupledPreds,
            params.condRequireSaturation);
    }

    if (params.variant != FrontendVariant::NoDcf) {
        dcfEngine = std::make_unique<DecoupledFetcher>(btb, bank, faq);
        decEng = std::make_unique<DecoupledFetchEngine>(
            params.fetch, mem, supply, faq, ckpts);
    }
    cplEng = std::make_unique<CoupledFetchEngine>(
        params.fetch, mem, supply, ckpts, *policy);

    curMode = params.variant == FrontendVariant::Dcf
                  ? FetchMode::Decoupled
                  : FetchMode::Coupled;
}

bool
ElfController::dcfTick(Cycle now)
{
    return dcfEngine && dcfEngine->tick(now);
}

void
ElfController::expandDecoupledRecords(const FaqEntry &e, unsigned first,
                                      unsigned count)
{
    for (unsigned i = first; i < first + count; ++i) {
        const Addr pc = e.startPC + instsToBytes(i);
        const FaqBranch *fb = e.branchAt(i);
        // Whether the DCF pushed a history bit for this instance is
        // exactly whether it sits in a BTB slot of this block; the
        // core corrects the in-flight instruction's flag so commit
        // pushes (or skips) the matching architectural bit.
        visFixes.emplace_back(
            periodStartSeq + decoupledCount + (i - first),
            fb != nullptr);
        if (fb) {
            divTracker.recordDecoupled(
                true, fb->predTaken, fb->kind, pc,
                fb->predTaken ? fb->target : pc + instBytes,
                fb->tagePred, fb->ittagePred);
        } else {
            divTracker.recordDecoupled(false, false, BranchKind::None,
                                       pc, pc + instBytes);
        }
    }
}

void
ElfController::patchFromFaq(const FaqEntry &e, unsigned offset,
                            SeqNum seq)
{
    PredPatch p;
    p.seq = seq;
    p.clearStall = true;
    const FaqBranch *fb = e.branchAt(offset);
    if (fb) {
        p.historyPushed = true;
        p.taken = fb->predTaken;
        p.target = fb->predTaken
                       ? fb->target
                       : e.startPC + instsToBytes(offset + 1);
        p.tage = fb->tagePred;
        p.ittage = fb->ittagePred;
    } else {
        // The DCF has no branch information here; if the block was a
        // BTB-miss guess the core re-runs decode-style recovery.
        p.taken = false;
        p.target = e.startPC + instsToBytes(offset + 1);
        p.fromBtbMiss = e.fromBtbMiss;
    }
    patchList.push_back(p);
}

void
ElfController::switchToDecoupled(Cycle now)
{
    ELFSIM_ASSERT(!faq.empty(), "switch without a FAQ block");
    const FaqEntry &head = faq.front();

    ELFSIM_ASSERT(fetchCoupledCount >= decoupledCount,
                  "count inversion at switch");
    const unsigned consumed =
        static_cast<unsigned>(fetchCoupledCount - decoupledCount);
    ELFSIM_ASSERT(consumed <= head.numInsts,
                  "switch consumed more than the head block");

    // The consumed prefix covers coupled-fetched instructions: they
    // still flow to decode, so their divergence records are needed.
    expandDecoupledRecords(head, 0, consumed);

    // The DCF caught up: every coupled checkpoint payload can now be
    // populated from FAQ information (Section IV-D1).
    if (params.payloadPolicy == PayloadPolicy::FaqFill)
        ckpts.fillPayloadsUpTo(supply.nextSeq() - 1);

    // A branch the coupled engine stalled on is covered by the FAQ
    // now: adopt the DCF's prediction for it — but only if the block
    // really lines up with the coupled stream (the catching-up DCF
    // may have guessed sequentially through a taken branch, in which
    // case divergence detection recovers instead).
    if (stalledSeq != 0 && stalledPos >= decoupledCount &&
        stalledPos < decoupledCount + consumed) {
        const unsigned off =
            static_cast<unsigned>(stalledPos - decoupledCount);
        if (head.startPC + instsToBytes(off) == stalledPC) {
            patchFromFaq(head, off, stalledSeq);
            stalledSeq = 0;
        }
    }

    decoupledCount += consumed;
    faq.advanceFront(consumed);
    if (head.numInsts == 0)
        faq.pop();

    curMode = FetchMode::Decoupled;
    cplEng->stop();
    decEng->redirect(now);
    draining = true;
    ++st.switches;
    (void)now;
}

bool
ElfController::processFaqWhileCoupled(Cycle now)
{
    bool acted = false;
    while (!faq.empty() &&
           faq.front().genCycle + params.bp1ToFe <= now) {
        const FaqEntry &head = faq.front();

        // Rule 3 (Figure 5): the FAQ (including this block) now
        // covers at least everything fetched in coupled mode — the
        // DCF has caught up; switch to decoupled mode. This is also
        // how a coupled fetcher stalled at an unpredictable decision
        // resumes: the FAQ covers the decision and drives past it.
        if (decoupledCount + head.numInsts >= fetchCoupledCount) {
            switchToDecoupled(now);
            return true;
        }

        // Rule 1/2: the fetcher already fetched (and decoded) every
        // instruction of this block: it can be popped safely.
        if (decodeCoupledCount >= decoupledCount + head.numInsts) {
            expandDecoupledRecords(head, 0, head.numInsts);
            decoupledCount += head.numInsts;
            if (params.payloadPolicy == PayloadPolicy::FaqFill)
                ckpts.fillPayloadsUpTo(periodStartSeq +
                                       decoupledCount - 1);
            faq.pop();
            acted = true;
            continue;
        }
        break;
    }
    return acted;
}

ElfController::Fetcher
ElfController::fetcher(bool can_fetch) const
{
    if (!can_fetch)
        return Fetcher::None;
    if (curMode == FetchMode::Decoupled)
        return Fetcher::Decoupled;
    // ELF: respect the finite bitvectors/target queues, accounting
    // for coupled instructions fetched but not yet recorded at decode.
    if (isElf(params.variant) &&
        divTracker.coupledSpace() <=
            coupledFetched - decodeCoupledCount + params.fetch.width)
        return Fetcher::None;
    return Fetcher::Coupled;
}

bool
ElfController::fetchTick(Cycle now, BoundedQueue<DynInst> &out,
                         Redirect &redirect, bool can_fetch)
{
    const std::size_t before = out.size();
    // An engine acts whenever it gets past its stall checks: it
    // fetches or misses in the L0I.
    bool acted = false;
    switch (fetcher(can_fetch)) {
      case Fetcher::Coupled:
        acted = cplEng->nextActive(now) == now;
        cplEng->tick(now, out);
        break;
      case Fetcher::Decoupled:
        acted = decEng->nextActive(now, params.bp1ToFe) == now;
        decEng->tick(now, params.bp1ToFe, out);
        break;
      case Fetcher::None:
        break;
    }
    if (!isElf(params.variant))
        return acted;
    const unsigned n = static_cast<unsigned>(out.size() - before);

    if (curMode == FetchMode::Coupled) {
        ++st.coupledCycles;
        for (std::size_t i = before; i < out.size(); ++i) {
            const DynInst &di = out.at(i);
            if (di.fetchStalled) {
                stalledSeq = di.seq;
                stalledPC = di.pc();
                stalledPos =
                    coupledFetched + (di.seq - out.at(before).seq);
            }
        }
        fetchCoupledCount += n;
        coupledFetched += n;
        st.coupledInsts += n;
        acted |= processFaqWhileCoupled(now);
    } else {
        ++st.decoupledCycles;
        // The coupled RAS is updated even in decoupled mode (IV-D2).
        if (hasCoupledRas(params.variant)) {
            for (std::size_t i = before; i < out.size(); ++i) {
                const DynInst &di = out.at(i);
                if (isCall(di.si->branch))
                    coupledPreds.ras().push(di.pc() + instBytes);
                else if (isReturn(di.si->branch))
                    coupledPreds.ras().pop();
            }
        }
    }

    // Divergence detection (runs during coupled mode and while the
    // last coupled instructions drain through decode). Stalled
    // branches adopt the DCF's prediction without flushing.
    adoptScratch.clear();
    acted |= divTracker.hasPair();
    const auto div = divTracker.compare(adoptScratch);
    for (const Divergence &a : adoptScratch) {
        PredPatch p;
        p.seq = a.survivorSeq;
        p.taken = a.patchTaken;
        p.target = a.patchTarget;
        p.tage = a.patchTage;
        p.ittage = a.patchIttage;
        p.clearStall = true;
        p.historyPushed = a.patchFromSlot;
        p.fromBtbMiss = a.patchFromMiss;
        patchList.push_back(p);
    }
    if (!div && drainComplete) {
        // Every coupled instruction decoded and compared clean: the
        // resynchronization is fully done.
        endPeriodTracking();
        acted = true;
    }
    if (div) {
        Redirect req;
        req.kind = RedirectKind::Divergence;
        req.survivorSeq = div->survivorSeq;
        req.targetPC = div->continuation;
        req.oracleCursor = div->oracleCursor;
        req.atCycle = now;
        mergeRedirect(redirect, req);
        ++st.divergenceFlushes;
        if (div->verdict == DivergenceVerdict::TrustFetcher)
            ++st.trustFetcherFlushes;
        if (div->patchSurvivor) {
            PredPatch p;
            p.seq = div->survivorSeq;
            p.taken = div->patchTaken;
            p.target = div->patchTarget;
            p.tage = div->patchTage;
            p.ittage = div->patchIttage;
            p.clearStall = true;
            p.historyPushed = div->patchFromSlot;
            patchList.push_back(p);
        }
    }
    return acted;
}

Cycle
ElfController::nextWake(Cycle now, bool can_fetch) const
{
    Cycle wake = neverCycle;
    switch (fetcher(can_fetch)) {
      case Fetcher::Coupled:
        wake = cplEng->nextActive(now);
        break;
      case Fetcher::Decoupled:
        wake = decEng->nextActive(now, params.bp1ToFe);
        break;
      case Fetcher::None:
        break;
    }
    if (params.variant == FrontendVariant::NoDcf)
        return wake;

    // Coupled ELF consumes the FAQ head once it is visible (a visible
    // head it left waits for the coupled counts to move).
    if (curMode == FetchMode::Coupled && !faq.empty()) {
        const Cycle visible = faq.front().genCycle + params.bp1ToFe;
        if (visible > now)
            wake = std::min(wake, visible);
    }
    wake = std::min(wake, dcfEngine->nextActive(now));
    // An idle fetch leaves the prefetcher idle only behind a full
    // in-flight queue (a scan that found every line present holds
    // until the FAQ or the L0I changes).
    if (params.maxInstPrefetch != 0 &&
        prefetchInflight.size() >= params.maxInstPrefetch)
        wake = std::min(wake, prefetchInflight.front());
    return wake;
}

void
ElfController::skipIdle(Cycle now, Cycle n, bool can_fetch)
{
    switch (fetcher(can_fetch)) {
      case Fetcher::Coupled:
        cplEng->skipIdle(now, n);
        break;
      case Fetcher::Decoupled:
        decEng->skipIdle(now, n);
        break;
      case Fetcher::None:
        break;
    }
    if (!isElf(params.variant))
        return;
    if (curMode == FetchMode::Coupled)
        st.coupledCycles += n;
    else
        st.decoupledCycles += n;
}

void
ElfController::onDecoded(const DynInst &di)
{
    if (!isElf(params.variant))
        return;
    if (di.mode != FetchMode::Coupled || di.seq < periodStartSeq)
        return;
    ++decodeCoupledCount;
    divTracker.recordCoupled(di);
    // Do not reset the bitvectors here even if decode has caught up:
    // the record just added still needs to be compared against the
    // decoupled stream (paper IV-C3). fetchTick() finishes the period
    // after a clean comparison.
    if (draining && decodeCoupledCount >= coupledFetched)
        drainComplete = true;
}

void
ElfController::endPeriodTracking()
{
    draining = false;
    drainComplete = false;
    divTracker.reset();
    fetchCoupledCount = 0;
    decodeCoupledCount = 0;
    decoupledCount = 0;
    coupledFetched = 0;
    stalledSeq = 0;
}

void
ElfController::applyRedirect(Cycle now, Addr target_pc)
{
    switch (params.variant) {
      case FrontendVariant::NoDcf:
        cplEng->resumeAt(target_pc, now);
        return;
      case FrontendVariant::Dcf:
        dcfEngine->restart(target_pc, now);
        decEng->redirect(now);
        return;
      default:
        break;
    }

    // ELF: enter coupled mode at the corrected PC while the DCF
    // restarts from BP1 behind the fetcher.
    dcfEngine->restart(target_pc, now);
    decEng->redirect(now);
    cplEng->start(target_pc, now);
    curMode = FetchMode::Coupled;
    draining = false;
    drainComplete = false;
    divTracker.reset();
    fetchCoupledCount = 0;
    decodeCoupledCount = 0;
    decoupledCount = 0;
    coupledFetched = 0;
    stalledSeq = 0;
    periodStartSeq = supply.nextSeq();
    coupledPreds.syncRasFrom(bank.specRas());
    ++st.coupledPeriods;
}

bool
ElfController::prefetchTick(Cycle now, bool fetch_was_idle)
{
    if (params.variant == FrontendVariant::NoDcf)
        return false;
    if (!fetch_was_idle)
        return false;
    // Retiring completed prefetches changes nothing a later cycle
    // would not retire itself, so it is not an action.
    while (!prefetchInflight.empty() && prefetchInflight.front() <= now)
        prefetchInflight.pop();
    if (prefetchInflight.size() >= params.maxInstPrefetch)
        return false;

    // Oldest-to-youngest scan of the FAQ for the first block whose
    // line is not already in the L0I. A scan that found every line
    // present holds until the queued blocks or the L0I's resident
    // lines change, so an idle fetcher behind a stalled back end does
    // not repeat it every cycle.
    const std::uint64_t faqVersion = faq.version();
    const std::uint64_t l0iVersion = mem.l0i().residencyVersion();
    if (faqVersion == coveredFaqVersion && l0iVersion == coveredL0iVersion)
        return false;
    for (std::size_t i = 0; i < faq.size(); ++i) {
        const FaqEntry &e = faq.at(i);
        if (!mem.l0i().present(e.startPC)) {
            mem.prefetchInst(e.startPC, now);
            prefetchInflight.push(now + 8);
            ++st.instPrefetches;
            return true;
        }
    }
    coveredFaqVersion = faqVersion;
    coveredL0iVersion = l0iVersion;
    return true;
}

} // namespace elfsim
