/**
 * @file
 * Compiled architectural-trace artifact.
 *
 * A CompiledTrace holds the first N instructions of a workload's
 * dynamic stream — the exact sequence OracleStream would generate
 * lazily — as three flat event tables. Building it costs one pass of
 * the shared OracleGen kernel; afterwards every simulation cell of a
 * sweep (and every bench in a campaign, via the on-disk TraceCache)
 * reads the same immutable tables instead of re-evaluating
 * conditional-outcome specs, indirect target specs, and memory hash
 * chains per instruction per cell.
 *
 * The tables are the stream; nothing per instruction is stored:
 *
 *   - runs: maximal sequential regions, as (position, start PC). A
 *     run starts at position 0 and after every taken transfer;
 *     within a run the PC advances by instBytes per instruction, so
 *     the PC at any position is arithmetic over its run, and the
 *     static instruction is the program image at that PC;
 *   - branch events: one per instruction with a branch kind (taken
 *     or not), as (position, architectural next PC) plus a packed
 *     taken bit set. The kind is the static instruction's;
 *   - memory events: one per memory instruction, as (position, bound
 *     address) plus a packed is-store bit set. The PC is the run's.
 *
 * OracleStream serves the prefix by walking the three tables with
 * one cursor each, and the batch warming kernel (sim/warm_kernel.cc)
 * iterates them directly. Every run but the last ends in a taken
 * transfer; the last one ends taken iff the final branch event sits
 * at position N - 1 and is taken.
 *
 * The trace also records the generator state *after* instruction N
 * (PC, call stack, spec instance counters) so a consumer that runs
 * past the compiled prefix resumes lazy generation seamlessly — the
 * compiled and lazy streams are indistinguishable at every index.
 *
 * On-disk format ("elfsim-trace-v4", native-endian, 8-byte words):
 *
 *   char     magic[16]   "elfsim-trace-v4\0"
 *   u64      key         content hash (Program::contentHash +
 *                        instruction count); the key salt is
 *                        independent of the magic — see key()
 *   u64      count       compiled instructions
 *   u64      callDepth, condN, indN, memN   end-state array lengths
 *   u64      endPC       generator PC after instruction count
 *   u64      nBranch, nRun, nMem            event-table lengths
 *   u64      checksum    Checksum64 of the other header scalars
 *                        (each as 8 little-endian bytes, in file
 *                        order) plus every section byte after this
 *                        field
 *   u64[]    callStack, condCount, indCount, memCount  (end state)
 *   u64[]    branchTarget nBranch entries (architectural next PC)
 *   u64[]    takenWords  ceil(nBranch / 64) packed taken bits
 *   u64[]    runPC       nRun entries (PC at each run start)
 *   u64[]    memAddr     nMem entries (bound address per mem event)
 *   u64[]    storeWords  ceil(nMem / 64) packed is-store bits
 *   u32[]    branchPos   nBranch entries (stream positions)
 *   u32[]    runPos      nRun entries (run start positions)
 *   u32[]    memPos      nMem entries (stream positions)
 *
 * All u64 sections precede the u32 sections, so every view is
 * naturally aligned off the 8-aligned header. The file size is fully
 * determined by the header, so truncation is detected before the
 * checksum is even computed. After the checksum the loader checks the
 * structure the readers index by: every position table strictly
 * ascending and below count, and runPos[0] == 0. A bad magic
 * (including an artifact in a retired v1..v3 format), a stale key,
 * implausible lengths, a size mismatch, a checksum mismatch or a
 * malformed table all raise ParseError, which the TraceCache treats
 * as "recompile", never as a failed cell — a v3 file under a current
 * key transparently recompiles into a v4 file at the same path.
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

    /** Generator state after the last compiled instruction (lazy-tail
     *  resume point). */
    const OracleGen &endState() const { return end_; }

    // --- event tables (see the file comment) -------------------------

    /** Branch events (every instruction whose kind != None). */
    InstCount numBranchEvents() const { return nBranch_; }
    InstCount branchPos(InstCount j) const { return branchPos_[j]; }
    Addr branchTarget(InstCount j) const { return branchTarget_[j]; }
    bool
    branchTaken(InstCount j) const
    {
        return (takenWords_[j >> 6] >> (j & 63)) & 1;
    }

    /** Sequential runs delimited by taken transfers. */
    InstCount numRuns() const { return nRun_; }
    InstCount runPos(InstCount j) const { return runPos_[j]; }
    Addr runPC(InstCount j) const { return runPC_[j]; }
    /** One past the last position of run @a j. */
    InstCount
    runEnd(InstCount j) const
    {
        return j + 1 < nRun_ ? runPos_[j + 1] : count_;
    }
    /** Does run @a j end in a taken transfer? Every run but the last
     *  does; the last one iff the final branch event sits at
     *  size() - 1 and is taken. */
    bool
    runEndsTaken(InstCount j) const
    {
        return j + 1 < nRun_ ||
               (nBranch_ > 0 && branchPos(nBranch_ - 1) + 1 == count_ &&
                branchTaken(nBranch_ - 1));
    }

    /** Memory events (every memory instruction). */
    InstCount numMemEvents() const { return nMem_; }
    InstCount memPos(InstCount j) const { return memPos_[j]; }
    Addr memAddr(InstCount j) const { return memAddr_[j]; }
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

    /** Bytes served by a file mapping (0 for compiled/heap-loaded). */
    std::size_t mappedBytes() const { return mappedBytes_; }

    /**
     * Write the trace to @a path atomically (temp file + rename), so
     * concurrent processes sharing one cache directory never observe
     * a torn file. The checksum and the write both read the trace's
     * own tables; no file image is assembled in memory. Throws
     * IoError on filesystem failure, after removing the temp file.
     */
    void save(const std::string &path) const;

    /**
     * Load a trace from @a path, mmap when possible (falling back to
     * a plain read), verifying magic, version, key (== @a expect_key),
     * lengths, size, checksum, and the table structure (positions
     * strictly ascending and below size(), the first run at 0).
     * Throws ParseError on any mismatch or corruption, IoError if the
     * file cannot be read.
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

    // Table views: into the owned vectors after compile(), into the
    // backing file (or its heap copy) after load().
    const Addr *branchTarget_ = nullptr;
    const std::uint64_t *takenWords_ = nullptr;
    const Addr *runPC_ = nullptr;
    const Addr *memAddr_ = nullptr;
    const std::uint64_t *storeWords_ = nullptr;
    const std::uint32_t *branchPos_ = nullptr;
    const std::uint32_t *runPos_ = nullptr;
    const std::uint32_t *memPos_ = nullptr;

    std::vector<Addr> ownBranchTarget_;
    std::vector<std::uint64_t> ownTakenWords_;
    std::vector<Addr> ownRunPC_;
    std::vector<Addr> ownMemAddr_;
    std::vector<std::uint64_t> ownStoreWords_;
    std::vector<std::uint32_t> ownBranchPos_;
    std::vector<std::uint32_t> ownRunPos_;
    std::vector<std::uint32_t> ownMemPos_;

    /** Keeps a file mapping (or heap image) alive for the views. */
    std::shared_ptr<void> backing_;
    std::size_t mappedBytes_ = 0;
};

} // namespace elfsim

#endif // ELFSIM_WORKLOAD_COMPILED_TRACE_HH
