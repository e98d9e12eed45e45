/**
 * @file
 * Fundamental scalar types used across the simulator.
 *
 * The simulator models an abstract fixed-length (4-byte) ISA in the
 * spirit of ARMv8. Addresses are byte addresses; instruction PCs are
 * always 4-byte aligned.
 */

#ifndef ELFSIM_COMMON_TYPES_HH
#define ELFSIM_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace elfsim {

/** Byte address in the simulated address space. */
using Addr = std::uint64_t;

/** Simulation time in core clock cycles. */
using Cycle = std::uint64_t;

/** No such cycle: the wake time of a stage that only another stage's
 *  action can wake. */
constexpr Cycle neverCycle = std::numeric_limits<Cycle>::max();

/** Global dynamic instruction sequence number (monotonic, 1-based). */
using SeqNum = std::uint64_t;

/** Instruction count. */
using InstCount = std::uint64_t;

/** Architectural register index. */
using RegIndex = std::uint16_t;

/** Size of one fixed-length instruction in bytes. */
constexpr Addr instBytes = 4;

/** Invalid/absent address sentinel. */
constexpr Addr invalidAddr = std::numeric_limits<Addr>::max();

/** Invalid sequence number sentinel (sequence numbers start at 1). */
constexpr SeqNum invalidSeqNum = 0;

/** Number of architectural integer registers in the abstract ISA. */
constexpr RegIndex numArchRegs = 64;

/** Convert an instruction count to a byte span. */
constexpr Addr
instsToBytes(InstCount n)
{
    return static_cast<Addr>(n) * instBytes;
}

/** Convert a byte span to an instruction count (span must be aligned). */
constexpr InstCount
bytesToInsts(Addr bytes)
{
    return static_cast<InstCount>(bytes / instBytes);
}

} // namespace elfsim

#endif // ELFSIM_COMMON_TYPES_HH
