/**
 * @file
 * Static synthetic program image.
 *
 * A Program is a contiguous, immutable array of StaticInsts laid out
 * from a fixed code base address (so PC-to-instruction lookup is O(1)
 * arithmetic, like real contiguous code). Control flow is expressed by
 * branch instructions; dynamic behaviour (conditional outcomes,
 * indirect targets, memory addresses) is described by behaviour
 * *specs* stored alongside the image and evaluated by runtime state
 * owned by the OracleStream.
 */

#ifndef ELFSIM_WORKLOAD_PROGRAM_HH
#define ELFSIM_WORKLOAD_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/static_inst.hh"
#include "workload/behavior.hh"

namespace elfsim {

/** Default base address for synthetic code images. */
constexpr Addr defaultCodeBase = 0x400000;

/** Default base address for synthetic data regions. */
constexpr Addr defaultDataBase = 0x10000000;

/** Metadata for one basic block (instructions are in the flat image). */
struct BlockInfo
{
    std::uint32_t firstInst = 0;  ///< index of first instruction
    std::uint32_t numInsts = 0;   ///< block length in instructions
};

/**
 * An immutable synthetic program. Built by ProgramBuilder; consumed by
 * the OracleStream (architectural path) and the wrong-path walker.
 */
class Program
{
  public:
    Program() = default;

    /** @return instruction at @a pc, or nullptr if pc is unmapped. */
    const StaticInst *
    instAt(Addr pc) const
    {
        if (pc < base || pc >= base + instsToBytes(image.size()))
            return nullptr;
        if (pc % instBytes != 0)
            return nullptr;
        return &image[bytesToInsts(pc - base)];
    }

    /** @return true iff @a pc maps to an instruction. */
    bool contains(Addr pc) const { return instAt(pc) != nullptr; }

    /** Program entry point. */
    Addr entryPC() const { return entry; }

    /** First code address. */
    Addr codeBase() const { return base; }

    /** One past the last code address. */
    Addr codeLimit() const { return base + instsToBytes(image.size()); }

    /** Static code footprint in instructions. */
    InstCount footprintInsts() const { return image.size(); }

    /** Static code footprint in bytes. */
    Addr footprintBytes() const { return instsToBytes(image.size()); }

    /** Behaviour specs (conditional outcomes, indirect targets, mem). */
    const BehaviorSet &behaviors() const { return behaviorSet; }

    /** Basic-block table. */
    const std::vector<BlockInfo> &blocks() const { return blockTable; }

    /** Flat instruction image (debug/tests). */
    const std::vector<StaticInst> &instructions() const { return image; }

    /** Human-readable name (set by the catalog/builders). */
    const std::string &name() const { return progName; }

    /**
     * FNV-1a of the program's content: code base, entry point, every
     * static instruction and every behaviour spec, but not the name.
     * Computed once by ProgramBuilder::finalize (0 for a
     * default-constructed Program); compiled-trace and checkpoint keys
     * derive from it.
     */
    std::uint64_t contentHash() const { return contentKey; }

  private:
    friend class ProgramBuilder;

    Addr base = defaultCodeBase;
    Addr entry = defaultCodeBase;
    std::vector<StaticInst> image;
    std::vector<BlockInfo> blockTable;
    BehaviorSet behaviorSet;
    std::string progName = "anonymous";
    std::uint64_t contentKey = 0;
};

} // namespace elfsim

#endif // ELFSIM_WORKLOAD_PROGRAM_HH
