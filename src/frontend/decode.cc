#include "frontend/decode.hh"

#include "common/logging.hh"

namespace elfsim {

DecodeStage::DecodeStage(unsigned width, PredictorBank &bank)
    : width(width), bank(bank)
{
}

bool
DecodeStage::recoverMisfetch(Cycle now, DynInst &di, Redirect &resteer)
{
    const BranchKind kind = di.si->branch;
    bool doResteer = false;
    Cycle extra = 0;

    switch (kind) {
      case BranchKind::UncondDirect:
      case BranchKind::DirectCall:
        // The decoded target is in the instruction word.
        di.hasPrediction = true;
        di.predTaken = true;
        di.predTarget = di.si->directTarget;
        doResteer = true;
        ++st.resteerUncond;
        break;
      case BranchKind::Return: {
        // Explicit stall while the DCF RAS is accessed (paper III-C).
        const Addr t = bank.peekReturn();
        if (t != invalidAddr) {
            di.hasPrediction = true;
            di.predTaken = true;
            di.predTarget = t;
            doResteer = true;
            extra = 1;
            ++st.resteerReturn;
        }
        break;
      }
      case BranchKind::CondDirect: {
        // Predict with the current speculative history to make the
        // resteer decision — but do NOT keep this prediction for
        // training: the DCF's history has run ahead of this
        // instruction, so its indices are not reproducible. Commit
        // trains through the architectural history instead
        // (di.tagePred stays invalid).
        const TagePrediction tp = bank.predictCond(di.pc());
        di.hasPrediction = true;
        di.predTaken = tp.taken;
        di.predTarget =
            tp.taken ? di.si->directTarget : di.si->nextPC();
        // Only a predicted-taken conditional diverges from the
        // sequential stream the fetcher is already on.
        if (tp.taken) {
            doResteer = true;
            ++st.resteerCond;
        }
        break;
      }
      case BranchKind::IndirectJump:
      case BranchKind::IndirectCall: {
        // As for conditionals: predict for the resteer only; train
        // via the architectural history at commit.
        const Addr l0 = bank.predictIndirectL0(di.pc());
        const IttagePrediction ip = bank.predictIndirect(di.pc());
        Addr t = l0;
        if (t == invalidAddr) {
            t = ip.target;
            extra = 2; // the 3-cycle ITTAGE vs the 1-cycle BTC
        }
        if (t != invalidAddr) {
            di.hasPrediction = true;
            di.predTaken = true;
            di.predTarget = t;
            doResteer = true;
            ++st.resteerIndirect;
        }
        // Otherwise: wait for execution to resolve the target.
        break;
      }
      default:
        break;
    }

    // Re-derive resolution/misprediction with the new prediction.
    if (di.wrongPath) {
        di.taken = di.predTaken;
        di.actualNext = di.predTarget;
        di.mispredict = false;
    } else {
        di.mispredict = (di.taken != di.predTaken) ||
                        (di.taken && di.actualNext != di.predTarget);
    }

    if (!doResteer) {
        // No redirect. The branch stays invisible to the DCF's
        // speculative history: only BTB-tracked branches contribute
        // history bits, and this one has no slot yet — the
        // architectural history applies the same filter at commit, so
        // prediction- and training-time indices agree.
        return false;
    }

    resteer.kind = RedirectKind::DecodeResteer;
    resteer.survivorSeq = di.seq;
    resteer.targetPC = di.predTarget;
    resteer.oracleCursor = di.wrongPath ? 0 : di.oracleIdx + 1;
    resteer.atCycle = now + extra;
    ++st.resteers;
    return true;
}

unsigned
DecodeStage::tick(Cycle now, BoundedQueue<DynInst> &in, Redirect &resteer)
{
    unsigned decoded = 0;
    while (decoded < width && decoded < in.size() &&
           in.at(decoded).readyAt <= now) {
        DynInst &di = in.at(decoded);
        ++decoded;
        ++st.insts;

        bool resteered = false;
        if (di.isBranch() && !di.hasPrediction &&
            di.mode == FetchMode::Decoupled) {
            resteered = recoverMisfetch(now, di, resteer);
        }

        if (observer)
            observer->onDecoded(di);

        if (resteered)
            break; // younger instructions are being squashed
    }
    return decoded;
}

} // namespace elfsim
