/**
 * @file
 * BTB entry format (paper Section III-A, after AMD Zen): an entry
 * tracks up to 16 sequential instructions and up to 2 "observed taken
 * before" branches, with direct targets stored inline. An entry ends
 * when (1) an unconditional branch is encountered, (2) a third
 * tracked conditional would be needed, or (3) it spans 16
 * instructions.
 */

#ifndef ELFSIM_BTB_BTB_ENTRY_HH
#define ELFSIM_BTB_BTB_ENTRY_HH

#include <array>
#include <cstdint>

#include "common/error.hh"
#include "common/types.hh"
#include "isa/static_inst.hh"

namespace elfsim {

/** Maximum sequential instructions tracked per BTB entry. */
constexpr unsigned btbMaxInsts = 16;

/** Maximum tracked ("observed taken before") branches per entry. */
constexpr unsigned btbMaxBranches = 2;

/** Why the entry construction stopped. */
enum class BtbTermination : std::uint8_t {
    Unconditional, ///< ends with an unconditional branch (slot used)
    SlotPressure,  ///< a third tracked conditional did not fit
    MaxInsts,      ///< spans the full 16 instructions
};

/** One tracked branch inside a BTB entry. */
struct BtbSlot
{
    bool valid = false;
    std::uint8_t offset = 0;  ///< instruction offset from startPC
    BranchKind kind = BranchKind::None;
    Addr target = invalidAddr; ///< direct targets only

    /** PC of the tracked branch given the entry start. */
    Addr pc(Addr start_pc) const { return start_pc + instsToBytes(offset); }
};

/** A BTB entry. */
struct BtbEntry
{
    bool valid = false;
    Addr startPC = invalidAddr;
    std::uint8_t numInsts = 0;   ///< 1..16 sequential instructions
    BtbTermination termination = BtbTermination::MaxInsts;
    std::array<BtbSlot, btbMaxBranches> slots{};

    /** Number of valid tracked branches. */
    unsigned
    numSlots() const
    {
        unsigned n = 0;
        for (const BtbSlot &s : slots)
            n += s.valid ? 1 : 0;
        return n;
    }

    /** Fall-through address past the tracked instructions. */
    Addr fallthrough() const { return startPC + instsToBytes(numInsts); }

    /**
     * @return true iff the entry tracks the full 16 instructions, so
     * the speculative proxy fall-through access at PC + 16
     * instructions is correct in the absence of a taken branch
     * (paper Section III-B.2).
     */
    bool tracksMaxInsts() const { return numInsts == btbMaxInsts; }

    /** The terminating unconditional slot, or nullptr. */
    const BtbSlot *
    terminatingUncond() const
    {
        if (termination != BtbTermination::Unconditional)
            return nullptr;
        for (const BtbSlot &s : slots) {
            if (s.valid && isUnconditional(s.kind))
                return &s;
        }
        return nullptr;
    }

    /** Checkpoint the entry (see common/serialize.hh); a loaded
     *  termination or branch kind must name an enumerator. */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar(self.valid, self.startPC, self.numInsts, self.termination);
        for (auto &s : self.slots)
            ar(s.valid, s.offset, s.kind, s.target);
        if constexpr (Ar::loading) {
            if (self.termination > BtbTermination::MaxInsts)
                throw ParseError("btb: bad termination byte");
            for (const BtbSlot &s : self.slots)
                if (s.kind > BranchKind::Return)
                    throw ParseError("btb: bad branch kind byte");
        }
    }
};

/** Name of a termination cause (traces/stats). */
const char *btbTerminationName(BtbTermination t);

} // namespace elfsim

#endif // ELFSIM_BTB_BTB_ENTRY_HH
