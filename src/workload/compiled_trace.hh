/**
 * @file
 * Compiled architectural-trace artifact.
 *
 * A CompiledTrace materializes the first N instructions of a
 * workload's dynamic stream — the exact sequence OracleStream would
 * generate lazily — into a flat, index-addressable structure-of-arrays
 * buffer: static-instruction index, taken bitset, next PC, and bound
 * memory address. Building it costs one pass of the shared OracleGen
 * kernel; afterwards every simulation cell of a sweep (and every bench
 * in a campaign, via the on-disk TraceCache) reads the same immutable
 * buffer instead of re-evaluating conditional-outcome specs, indirect
 * target specs, and memory hash chains per instruction per cell.
 *
 * The trace also records the generator state *after* instruction N
 * (PC, call stack, spec instance counters) so a consumer that runs
 * past the compiled prefix resumes lazy generation seamlessly — the
 * compiled and lazy streams are indistinguishable at every index.
 *
 * Besides the per-instruction arrays, compilation derives three
 * *warming side tables* — flat event lists the batch warming kernel
 * (sim/warm_kernel.cc) iterates instead of walking every instruction:
 *
 *   - branch events: one entry per instruction with a branch kind
 *     (taken or not), carrying position, PC, kind + resolved
 *     direction, and the architectural next PC (the commit-training
 *     target);
 *   - runs: maximal sequential regions. A run starts at position 0
 *     and at the target of every taken transfer; within a run the PC
 *     advances by instBytes per instruction, so I-cache line
 *     transitions are pure arithmetic over (runPC, runPos);
 *   - memory events: one entry per memory instruction, carrying
 *     position, PC, bound address, and a packed is-store bitset.
 *
 * On-disk format ("elfsim-trace-v3", native-endian, 8-byte words):
 *
 *   char     magic[16]   "elfsim-trace-v3\0"
 *   u64      key         content hash (Program::contentHash +
 *                        instruction count); the key salt is
 *                        independent of the magic — see key()
 *   u64      count       compiled instructions
 *   u64      callDepth, condN, indN, memN   end-state array lengths
 *   u64      endPC       generator PC after instruction count
 *   u64      nBranch, nRun, nMem            side-table lengths
 *   u64      checksum    Checksum64 of the other header scalars
 *                        (each as 8 little-endian bytes, in file
 *                        order) plus every section byte after this
 *                        field
 *   u64[]    callStack, condCount, indCount, memCount  (end state)
 *   u64[]    takenWords  ceil(count / 64) packed outcome bits
 *   u64[]    nextPC      count entries
 *   u64[]    memAddr     count entries (invalidAddr for non-mem ops)
 *   u64[]    branchPC    nBranch entries
 *   u64[]    branchTarget nBranch entries (architectural next PC)
 *   u64[]    runPC       nRun entries (PC at each run start)
 *   u64[]    memPC       nMem entries
 *   u64[]    memEvAddr   nMem entries (bound address per mem event)
 *   u64[]    storeWords  ceil(nMem / 64) packed is-store bits
 *   u32[]    siIdx       count entries (index into the program image)
 *   u32[]    branchPos   nBranch entries (stream positions, ascending)
 *   u32[]    runPos      nRun entries (run start positions, ascending)
 *   u32[]    memPos      nMem entries (stream positions, ascending)
 *   u8[]     branchKind  nBranch entries: BranchKind in the low bits,
 *                        resolved taken direction in bit 7
 *
 * All u64 sections precede the u32 sections, which precede the u8
 * section, so every view is naturally aligned off the 8-aligned
 * header. The file size is fully determined by the header, so
 * truncation is detected before the checksum is even computed; a bad
 * magic (including an artifact in a retired v1 or v2 format), a stale
 * key, implausible lengths, a size mismatch, or a checksum mismatch
 * all raise ParseError, which the TraceCache treats as "recompile",
 * never as a failed cell — a v2 file under a current key
 * transparently recompiles into a v3 file at the same path.
 */

#ifndef ELFSIM_WORKLOAD_COMPILED_TRACE_HH
#define ELFSIM_WORKLOAD_COMPILED_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "workload/oracle_stream.hh"
#include "workload/program.hh"

namespace elfsim {

/** Immutable compiled prefix of a workload's architectural stream. */
class CompiledTrace
{
  public:
    /** Run the generation kernel for @a count instructions of
     *  @a prog and materialize the results. */
    static std::shared_ptr<const CompiledTrace>
    compile(const Program &prog, InstCount count);

    /**
     * Content hash identifying a (program, instruction count) pair:
     * the program's contentHash (static image, every behaviour spec,
     * the entry point) and the requested length. Two programs with
     * identical content share a key (and therefore a cache file)
     * regardless of their names or addresses in memory. Constant time:
     * the image was hashed once, when the Program was built.
     *
     * The hash is salted with the original "elfsim-trace-v1" format
     * string, frozen independently of the file magic: the key names
     * the stream content, not the container layout. Container-format
     * staleness is caught by the file magic instead.
     */
    static std::uint64_t key(const Program &prog, InstCount count);

    /** Compiled instructions. */
    InstCount size() const { return count_; }

    /** The content hash this trace was compiled (or loaded) under. */
    std::uint64_t cacheKey() const { return key_; }

    // 0-based accessors into the flat buffers (index < size()).
    std::uint32_t siIndex(InstCount i) const { return siIdx_[i]; }
    bool
    taken(InstCount i) const
    {
        return (takenWords_[i >> 6] >> (i & 63)) & 1;
    }
    Addr nextPC(InstCount i) const { return nextPC_[i]; }
    Addr memAddr(InstCount i) const { return memAddr_[i]; }

    /** Generator state after the last compiled instruction (lazy-tail
     *  resume point). */
    const OracleGen &endState() const { return end_; }

    // --- warming side tables (see the file comment) ------------------

    /** Branch events (every instruction whose kind != None). */
    InstCount numBranchEvents() const { return nBranch_; }
    InstCount branchPos(InstCount j) const { return branchPos_[j]; }
    Addr branchPC(InstCount j) const { return branchPC_[j]; }
    Addr branchTarget(InstCount j) const { return branchTarget_[j]; }
    BranchKind
    branchKind(InstCount j) const
    {
        return BranchKind(branchKind_[j] & 0x7f);
    }
    bool branchTaken(InstCount j) const { return branchKind_[j] >> 7; }

    /** Sequential runs delimited by taken transfers. */
    InstCount numRuns() const { return nRun_; }
    InstCount runPos(InstCount j) const { return runPos_[j]; }
    Addr runPC(InstCount j) const { return runPC_[j]; }

    /** Memory events (every memory instruction). */
    InstCount numMemEvents() const { return nMem_; }
    InstCount memPos(InstCount j) const { return memPos_[j]; }
    Addr memPC(InstCount j) const { return memPC_[j]; }
    Addr memEvAddr(InstCount j) const { return memEvAddr_[j]; }
    bool
    memIsStore(InstCount j) const
    {
        return (storeWords_[j >> 6] >> (j & 63)) & 1;
    }

    /** Index of the first branch event at position >= @a pos. */
    InstCount firstBranchAtOrAfter(InstCount pos) const;
    /** Index of the first memory event at position >= @a pos. */
    InstCount firstMemAtOrAfter(InstCount pos) const;
    /** Index of the run containing position @a pos (pos < size()). */
    InstCount runContaining(InstCount pos) const;

    /** Size of the instruction arrays in bytes (stat reporting). */
    std::size_t payloadBytes() const;

    /** Bytes served by a file mapping (0 for compiled/heap-loaded). */
    std::size_t mappedBytes() const { return mappedBytes_; }

    /**
     * Write the trace to @a path atomically (temp file + rename), so
     * concurrent processes sharing one cache directory never observe
     * a torn file. The checksum and the write both read the trace's
     * own arrays; no file image is assembled in memory. Throws
     * IoError on filesystem failure, after removing the temp file.
     */
    void save(const std::string &path) const;

    /**
     * Load a trace from @a path, mmap when possible (falling back to
     * a plain read), verifying magic, version, size, checksum, and
     * that the stored key equals @a expect_key. Throws ParseError on
     * any mismatch or corruption, IoError if the file cannot be read.
     */
    static std::shared_ptr<const CompiledTrace>
    load(const std::string &path, std::uint64_t expect_key);

    CompiledTrace(const CompiledTrace &) = delete;
    CompiledTrace &operator=(const CompiledTrace &) = delete;

  private:
    CompiledTrace() = default;

    InstCount count_ = 0;
    std::uint64_t key_ = 0;
    OracleGen end_;

    InstCount nBranch_ = 0;
    InstCount nRun_ = 0;
    InstCount nMem_ = 0;

    // Array views: into the owned vectors after compile(), into the
    // backing file (or its heap copy) after load().
    const std::uint64_t *takenWords_ = nullptr;
    const Addr *nextPC_ = nullptr;
    const Addr *memAddr_ = nullptr;
    const std::uint32_t *siIdx_ = nullptr;

    const Addr *branchPC_ = nullptr;
    const Addr *branchTarget_ = nullptr;
    const Addr *runPC_ = nullptr;
    const Addr *memPC_ = nullptr;
    const Addr *memEvAddr_ = nullptr;
    const std::uint64_t *storeWords_ = nullptr;
    const std::uint32_t *branchPos_ = nullptr;
    const std::uint32_t *runPos_ = nullptr;
    const std::uint32_t *memPos_ = nullptr;
    const std::uint8_t *branchKind_ = nullptr;

    std::vector<std::uint64_t> ownTaken_;
    std::vector<Addr> ownNextPC_;
    std::vector<Addr> ownMemAddr_;
    std::vector<std::uint32_t> ownSiIdx_;

    std::vector<Addr> ownBranchPC_;
    std::vector<Addr> ownBranchTarget_;
    std::vector<Addr> ownRunPC_;
    std::vector<Addr> ownMemPC_;
    std::vector<Addr> ownMemEvAddr_;
    std::vector<std::uint64_t> ownStoreWords_;
    std::vector<std::uint32_t> ownBranchPos_;
    std::vector<std::uint32_t> ownRunPos_;
    std::vector<std::uint32_t> ownMemPos_;
    std::vector<std::uint8_t> ownBranchKind_;

    /** Keeps a file mapping (or heap image) alive for the views. */
    std::shared_ptr<void> backing_;
    std::size_t mappedBytes_ = 0;
};

} // namespace elfsim

#endif // ELFSIM_WORKLOAD_COMPILED_TRACE_HH
