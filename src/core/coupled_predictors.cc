#include "core/coupled_predictors.hh"

namespace elfsim {

const char *
variantName(FrontendVariant v)
{
    switch (v) {
      case FrontendVariant::NoDcf: return "NoDCF";
      case FrontendVariant::Dcf: return "DCF";
      case FrontendVariant::LElf: return "L-ELF";
      case FrontendVariant::RetElf: return "RET-ELF";
      case FrontendVariant::IndElf: return "IND-ELF";
      case FrontendVariant::CondElf: return "COND-ELF";
      case FrontendVariant::UElf: return "U-ELF";
    }
    return "?";
}

CoupledPredictors::CoupledPredictors(const CoupledPredictorParams &params)
    : bimodalPred(params.bimodal), btcPred(params.btc),
      rasStack(params.rasEntries)
{
}

void
CoupledPredictors::trainCommit(Addr pc, BranchKind kind, bool taken,
                               Addr target, FetchMode mode)
{
    // Qualitatively it makes little sense to allocate entries for
    // branches that are seldom fetched in coupled mode (paper IV-D3).
    if (mode != FetchMode::Coupled)
        return;
    if (kind == BranchKind::CondDirect)
        bimodalPred.update(pc, taken);
    else if (kind == BranchKind::IndirectJump ||
             kind == BranchKind::IndirectCall)
        btcPred.update(pc, target);
}

double
CoupledPredictors::storageBytes() const
{
    return bimodalPred.storageBytes() + btcPred.storageBytes() +
           rasStack.storageBytes();
}

ElfCoupledPolicy::ElfCoupledPolicy(FrontendVariant variant,
                                   CoupledPredictors &preds,
                                   bool cond_require_saturation)
    : variant(variant), preds(preds),
      condRequireSaturation(cond_require_saturation)
{
}

bool
ElfCoupledPolicy::predictCond(DynInst &di)
{
    if (!hasCoupledBimodal(variant))
        return false;
    // Filter: only speculate past conditionals whose 3-bit counter is
    // saturated, to limit wrong-path pollution (paper Section VI-B).
    // The filter can be ablated (bench_ablation_elf).
    if (condRequireSaturation && !preds.bimodal().saturated(di.pc()))
        return false;
    di.hasPrediction = true;
    di.predTaken = preds.bimodal().predict(di.pc());
    di.predTarget =
        di.predTaken ? di.si->directTarget : di.si->nextPC();
    return true;
}

bool
ElfCoupledPolicy::predictIndirect(DynInst &di)
{
    if (!hasCoupledBtc(variant))
        return false;
    const Addr t = preds.btc().predict(di.pc());
    if (t == invalidAddr)
        return false; // BTC miss: stall as in L-ELF
    di.hasPrediction = true;
    di.predTaken = true;
    di.predTarget = t;
    return true;
}

bool
ElfCoupledPolicy::predictReturn(DynInst &di)
{
    if (!hasCoupledRas(variant))
        return false;
    const Addr t = preds.ras().pop();
    if (t == invalidAddr)
        return false;
    di.hasPrediction = true;
    di.predTaken = true;
    di.predTarget = t;
    return true;
}

void
ElfCoupledPolicy::onCall(Addr ret_addr)
{
    if (hasCoupledRas(variant))
        preds.ras().push(ret_addr);
}

bool
NoDcfPolicy::predictCond(DynInst &di)
{
    const TagePrediction tp = bank.predictCond(di.pc());
    ckpts.payload(di.checkpointId).tage = tp;
    di.hasPrediction = true;
    di.predTaken = tp.taken;
    di.predTarget =
        tp.taken ? di.si->directTarget : di.si->nextPC();
    bank.specBranch(di.pc(), BranchKind::CondDirect, tp.taken);
    lastExtra = 0;
    return true;
}

bool
NoDcfPolicy::predictIndirect(DynInst &di)
{
    const Addr l0 = bank.predictIndirectL0(di.pc());
    const IttagePrediction ip = bank.predictIndirect(di.pc());
    ckpts.payload(di.checkpointId).ittage = ip;
    Addr t = l0;
    lastExtra = 0;
    if (t == invalidAddr) {
        t = ip.target;
        lastExtra = 2; // the 3-cycle ITTAGE instead of the 1-cycle BTC
    }
    if (t == invalidAddr)
        return false; // wait for execution
    di.hasPrediction = true;
    di.predTaken = true;
    di.predTarget = t;
    bank.specBranch(di.pc(), di.si->branch, true);
    return true;
}

bool
NoDcfPolicy::predictReturn(DynInst &di)
{
    const Addr t = bank.peekReturn();
    if (t == invalidAddr)
        return false;
    di.hasPrediction = true;
    di.predTaken = true;
    di.predTarget = t;
    bank.specBranch(di.pc(), BranchKind::Return, true);
    lastExtra = 0;
    return true;
}

void
NoDcfPolicy::onCall(Addr ret_addr)
{
    bank.specBranch(ret_addr - instBytes, BranchKind::DirectCall, true);
    lastExtra = 0;
}

unsigned
NoDcfPolicy::extraBubbles(const DynInst &di) const
{
    (void)di;
    return lastExtra;
}

void
NoDcfPolicy::onUncond(Addr pc)
{
    bank.specBranch(pc, BranchKind::UncondDirect, true);
    lastExtra = 0;
}

} // namespace elfsim
