#include "workload/program.hh"

#include "common/hash.hh"
#include "common/logging.hh"
#include "workload/program_builder.hh"

namespace elfsim {

namespace {

/** Program::contentHash of a finished image. */
std::uint64_t
hashContent(const Program &prog)
{
    Fnv1a h;
    h.u64(prog.codeBase()).u64(prog.entryPC());

    const std::vector<StaticInst> &image = prog.instructions();
    h.u64(image.size());
    for (const StaticInst &si : image) {
        h.u64(si.pc)
            .u64(std::uint64_t(si.cls))
            .u64(std::uint64_t(si.branch))
            .u64(si.directTarget)
            .u64(si.destReg)
            .u64(si.srcRegs[0])
            .u64(si.srcRegs[1])
            .u64(si.behavior);
    }

    const BehaviorSet &b = prog.behaviors();
    h.u64(b.numConds());
    for (std::size_t i = 0; i < b.numConds(); ++i) {
        const CondSpec &c = b.cond(std::uint32_t(i));
        h.u64(std::uint64_t(c.kind))
            .f64(c.takenProb)
            .u64(c.period)
            .u64(c.seed)
            .f64(c.patternBias);
    }
    h.u64(b.numIndirects());
    for (std::size_t i = 0; i < b.numIndirects(); ++i) {
        const IndirectSpec &t = b.indirect(std::uint32_t(i));
        h.u64(std::uint64_t(t.kind)).u64(t.period).u64(t.seed);
        h.u64(t.targets.size());
        for (Addr a : t.targets)
            h.u64(a);
    }
    h.u64(b.numMems());
    for (std::size_t i = 0; i < b.numMems(); ++i) {
        const MemSpec &m = b.mem(std::uint32_t(i));
        h.u64(std::uint64_t(m.kind))
            .u64(m.regionBase)
            .u64(m.regionSize)
            .u64(m.stride)
            .u64(m.seed);
    }
    return h.value();
}

} // namespace

ProgramBuilder::SymBlock &
ProgramBuilder::current()
{
    ELFSIM_ASSERT(blockOpen && !blocks.empty(),
                  "no open block; call beginBlock() first");
    return blocks.back();
}

std::uint32_t
ProgramBuilder::beginBlock()
{
    ELFSIM_ASSERT(!blockOpen, "previous block not terminated");
    blocks.emplace_back();
    blockOpen = true;
    return static_cast<std::uint32_t>(blocks.size() - 1);
}

void
ProgramBuilder::addOp(InstClass cls, RegIndex dst, RegIndex src0,
                      RegIndex src1)
{
    ELFSIM_ASSERT(cls != InstClass::Branch && cls != InstClass::Load &&
                      cls != InstClass::Store,
                  "use the dedicated add/end methods for this class");
    current().body.push_back(SymInst{cls, dst, src0, src1, false, {}});
}

void
ProgramBuilder::addLoad(const MemSpec &spec, RegIndex dst,
                        RegIndex addr_src)
{
    current().body.push_back(
        SymInst{InstClass::Load, dst, addr_src, numArchRegs, true, spec});
}

void
ProgramBuilder::addStore(const MemSpec &spec, RegIndex data_src,
                         RegIndex addr_src)
{
    current().body.push_back(SymInst{InstClass::Store, numArchRegs,
                                     data_src, addr_src, true, spec});
}

void
ProgramBuilder::addFiller(unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        const RegIndex dst = static_cast<RegIndex>(i % 24);
        const RegIndex src = static_cast<RegIndex>((i + 7) % 24);
        addOp(InstClass::IntAlu, dst, src);
    }
}

void
ProgramBuilder::endBlock(TermKind kind)
{
    SymBlock &b = current();
    b.term = kind;
    blockOpen = false;
}

void
ProgramBuilder::endCond(const CondSpec &spec, std::uint32_t target_block)
{
    current().cond = spec;
    current().targets = {target_block};
    endBlock(TermKind::Cond);
}

void
ProgramBuilder::endJump(std::uint32_t target_block)
{
    current().targets = {target_block};
    endBlock(TermKind::Jump);
}

void
ProgramBuilder::endCall(std::uint32_t target_block)
{
    current().targets = {target_block};
    endBlock(TermKind::Call);
}

void
ProgramBuilder::endIndirectJump(const IndirectSpec &proto,
                                std::vector<std::uint32_t> target_blocks)
{
    ELFSIM_ASSERT(!target_blocks.empty(), "indirect jump with no targets");
    current().indirect = proto;
    current().targets = std::move(target_blocks);
    endBlock(TermKind::IndJump);
}

void
ProgramBuilder::endIndirectCall(const IndirectSpec &proto,
                                std::vector<std::uint32_t> target_blocks)
{
    ELFSIM_ASSERT(!target_blocks.empty(), "indirect call with no targets");
    current().indirect = proto;
    current().targets = std::move(target_blocks);
    endBlock(TermKind::IndCall);
}

void
ProgramBuilder::endReturn()
{
    endBlock(TermKind::Return);
}

void
ProgramBuilder::endFallthrough()
{
    endBlock(TermKind::Fallthrough);
}

InstCount
ProgramBuilder::instCount() const
{
    InstCount n = 0;
    for (const SymBlock &b : blocks) {
        n += b.body.size();
        if (b.term != TermKind::Open && b.term != TermKind::Fallthrough)
            ++n;
    }
    return n;
}

Program
ProgramBuilder::finalize(std::string name, std::uint32_t entry_block)
{
    ELFSIM_ASSERT(!blockOpen, "finalize with an open block");
    ELFSIM_ASSERT(entry_block < blocks.size(), "bad entry block");

    // Pass 1: compute block start indices (instruction granularity).
    std::vector<std::uint32_t> blockStart(blocks.size());
    std::uint32_t idx = 0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        blockStart[i] = idx;
        idx += static_cast<std::uint32_t>(blocks[i].body.size());
        if (blocks[i].term != TermKind::Fallthrough)
            ++idx; // terminator branch instruction
    }
    const std::uint32_t total = idx;

    auto block_pc = [&](std::uint32_t b) {
        ELFSIM_ASSERT(b < blocks.size(), "terminator references block %u "
                      "but only %zu blocks exist", b, blocks.size());
        return base + instsToBytes(blockStart[b]);
    };

    Program prog;
    prog.base = base;
    prog.progName = std::move(name);
    prog.entry = block_pc(entry_block);
    prog.image.reserve(total);
    prog.blockTable.reserve(blocks.size());

    // Pass 2: emit instructions and register behaviours.
    for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
        const SymBlock &b = blocks[bi];
        BlockInfo info;
        info.firstInst = blockStart[bi];

        for (const SymInst &s : b.body) {
            StaticInst inst;
            inst.pc = base + instsToBytes(prog.image.size());
            inst.cls = s.cls;
            inst.destReg = s.dst;
            inst.srcRegs = {s.src0, s.src1};
            inst.blockIndex = static_cast<std::uint32_t>(bi);
            if (s.hasMem)
                inst.behavior = prog.behaviorSet.addMem(s.mem);
            prog.image.push_back(inst);
        }

        if (b.term != TermKind::Fallthrough) {
            StaticInst inst;
            inst.pc = base + instsToBytes(prog.image.size());
            inst.cls = InstClass::Branch;
            inst.blockIndex = static_cast<std::uint32_t>(bi);
            switch (b.term) {
              case TermKind::Cond:
                inst.branch = BranchKind::CondDirect;
                inst.directTarget = block_pc(b.targets[0]);
                inst.behavior = prog.behaviorSet.addCond(b.cond);
                break;
              case TermKind::Jump:
                inst.branch = BranchKind::UncondDirect;
                inst.directTarget = block_pc(b.targets[0]);
                break;
              case TermKind::Call:
                inst.branch = BranchKind::DirectCall;
                inst.directTarget = block_pc(b.targets[0]);
                break;
              case TermKind::IndJump:
              case TermKind::IndCall: {
                inst.branch = b.term == TermKind::IndJump
                                  ? BranchKind::IndirectJump
                                  : BranchKind::IndirectCall;
                IndirectSpec spec = b.indirect;
                spec.targets.clear();
                for (std::uint32_t t : b.targets)
                    spec.targets.push_back(block_pc(t));
                inst.behavior = prog.behaviorSet.addIndirect(spec);
                break;
              }
              case TermKind::Return:
                inst.branch = BranchKind::Return;
                break;
              default:
                ELFSIM_PANIC("unterminated block %zu", bi);
            }
            prog.image.push_back(inst);
        }

        info.numInsts = static_cast<std::uint32_t>(
            prog.image.size() - info.firstInst);
        prog.blockTable.push_back(info);
    }

    ELFSIM_ASSERT(prog.image.size() == total, "layout size mismatch");
    prog.contentKey = hashContent(prog);
    return prog;
}

} // namespace elfsim
