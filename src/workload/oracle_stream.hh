/**
 * @file
 * Architectural (committed-path) instruction stream generator.
 *
 * The OracleStream produces the dynamic instruction stream the program
 * will actually commit, in program order, binding branch outcomes,
 * branch targets, and memory addresses from the behaviour specs. It
 * keeps a window from the oldest uncommitted instruction to the newest
 * generated one so that pipeline flushes can *replay* already-generated
 * instructions deterministically — the generator state never needs to
 * rewind.
 *
 * Instructions come from one of two backing stores:
 *
 *   - the lazy generator (OracleGen): spec evaluation per instruction,
 *     exactly as the window fills — the reference path;
 *   - a CompiledTrace (workload/compiled_trace.hh): the same stream
 *     compiled once into three immutable event tables (runs, branch
 *     events, memory events) shared read-only by every core
 *     simulating the same workload. Inside the prefix the stream
 *     walks them with one cursor each: the run table gives the PC
 *     (and so the static instruction), the next branch event the
 *     outcome and next PC of a branch, the next memory event the
 *     address of a memory instruction. An always-on assert panics if
 *     an instruction does not land on its event, so a table that
 *     disagrees with the program never drifts silently. A seek
 *     positions the cursors by binary search. Past the end of the
 *     trace the stream resumes the lazy generator from the trace's
 *     saved end state, so the two stores are indistinguishable to
 *     the consumer.
 *
 * The front-end walks this stream while on the correct path; when a
 * prediction disagrees with the oracle outcome the front-end keeps
 * fetching real wrong-path instructions from the static image (see
 * WrongPathWalker) until the branch resolves in the back-end.
 */

#ifndef ELFSIM_WORKLOAD_ORACLE_STREAM_HH
#define ELFSIM_WORKLOAD_ORACLE_STREAM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/queue.hh"
#include "common/types.hh"
#include "workload/program.hh"

namespace elfsim {

class CompiledTrace;

/** One architectural dynamic instruction. */
struct OracleInst
{
    const StaticInst *si = nullptr;
    /** Branch outcome (true for all taken control transfers). */
    bool taken = false;
    /** Architectural next PC (fall-through or actual target). */
    Addr nextPC = invalidAddr;
    /** Bound memory address (invalidAddr for non-memory ops). */
    Addr memAddr = invalidAddr;
};

/**
 * Resumable architectural-stream generator state: the PC, the call
 * stack, and the per-spec execution-instance counters. step() advances
 * exactly one instruction. This is the single generation kernel —
 * OracleStream's lazy path and CompiledTrace::compile both run it, so
 * a compiled trace is identical to the lazy stream by construction.
 */
struct OracleGen
{
    Addr pc = invalidAddr;
    std::vector<Addr> callStack;
    std::vector<std::uint64_t> condCount;
    std::vector<std::uint64_t> indCount;
    std::vector<std::uint64_t> memCount;

    /** Reset to @a prog's entry with zeroed instance counters. */
    void reset(const Program &prog);

    /** Generate the next architectural instruction and advance. */
    OracleInst step(const Program &prog);

    /** Serialize the resume state (checkpoint artifacts). */
    template <class S>
    void
    saveState(S &s) const
    {
        s.u64(pc);
        s.u64Vec(callStack);
        s.u64Vec(condCount);
        s.u64Vec(indCount);
        s.u64Vec(memCount);
    }

    template <class D>
    void
    loadState(D &d)
    {
        pc = d.u64();
        callStack = d.u64Vec(maxCallDepth);
        callStack.reserve(maxCallDepth);
        condCount = d.u64Vec();
        indCount = d.u64Vec();
        memCount = d.u64Vec();
    }

    static constexpr std::size_t maxCallDepth = 4096;
};

/** Default in-flight window guard (see OracleStream constructor). */
constexpr std::size_t defaultOracleWindowCap = 1u << 16;

/** Replayable architectural instruction window. */
class OracleStream
{
  public:
    /**
     * @param prog Program to execute.
     * @param window_cap Maximum in-flight (uncommitted) window; a
     *        guard against callers forgetting to retire.
     * @param trace Optional compiled backing store for @a prog (same
     *        program content); null generates lazily. The trace is
     *        shared read-only and must cover a prefix of the stream —
     *        beyond its end the stream continues lazily from the
     *        trace's saved generator state.
     */
    explicit OracleStream(
        const Program &prog,
        std::size_t window_cap = defaultOracleWindowCap,
        std::shared_ptr<const CompiledTrace> trace = nullptr);

    ~OracleStream();

    /**
     * Architectural instruction at 1-based index @a idx. Generates
     * forward as needed. @a idx must not be older than the oldest
     * unretired instruction.
     */
    const OracleInst &at(SeqNum idx);

    /** PC of the instruction at @a idx. */
    Addr
    pcAt(SeqNum idx)
    {
        return at(idx).si->pc;
    }

    /** Oldest unretired architectural index. */
    SeqNum oldest() const { return baseIdx; }

    /** Newest generated architectural index (0 if none yet). */
    SeqNum newest() const { return baseIdx + window.size() - 1; }

    /** Retire (drop) all instructions with index <= @a idx. */
    void retireUpTo(SeqNum idx);

    /**
     * Reposition the stream so the next instruction served is the
     * 1-based index @a next_idx. Requires an empty in-flight window
     * and a position covered by the compiled prefix (or position 0).
     */
    void seekTo(SeqNum next_idx);

    /**
     * Reposition to @a next_idx resuming lazy generation from
     * @a state (a checkpointed OracleGen). Inside the compiled prefix
     * the tables stay authoritative and @a state is ignored.
     */
    void seekTo(SeqNum next_idx, const OracleGen &state);

    /** 0-based position of the next instruction to generate. */
    InstCount genPosition() const { return genCursor; }

    /** True iff the in-flight window is empty (safe to seek). */
    bool windowEmpty() const { return window.empty(); }

    /** True iff genState() is live at genPosition() — the lazy
     *  generator is active (no trace, or the tail was adopted). */
    bool genStateKnown() const { return !trace || tailAdopted; }

    /** The lazy generator's resume state (see genStateKnown()). */
    const OracleGen &genState() const { return gen; }

    /** The program being executed. */
    const Program &program() const { return prog; }

    /** The compiled backing store, or null when fully lazy. */
    const CompiledTrace *backingTrace() const { return trace.get(); }

  private:
    void generateOne();
    /** The instruction at genCursor, read from the trace's tables. */
    OracleInst fromTables();
    /** Position the table cursors at prefix position @a pos. */
    void seekTables(InstCount pos);

    const Program &prog;
    std::size_t windowCap;
    /** Ring buffer of the in-flight window (no steady-state heap). */
    BoundedQueue<OracleInst> window;
    SeqNum baseIdx = 1;

    /** Compiled prefix shared across cores (may be null). */
    std::shared_ptr<const CompiledTrace> trace;
    /** 0-based index of the next instruction to generate. */
    InstCount genCursor = 0;
    /** Lazy generator: the whole stream when trace is null, the tail
     *  past the compiled prefix otherwise. */
    OracleGen gen;
    /** Has gen adopted the trace's end state for the tail? */
    bool tailAdopted = false;

    // Table cursors inside the compiled prefix (see fromTables()).
    /** PC of the instruction at genCursor. */
    Addr tracePC = invalidAddr;
    /** Next run to open, and the position where it opens (the
     *  prefix size once every run is open). */
    InstCount nextRun = 0;
    InstCount nextRunPos = 0;
    /** First branch / memory event at or after genCursor. */
    InstCount nextBranch = 0;
    InstCount nextMem = 0;
};

} // namespace elfsim

#endif // ELFSIM_WORKLOAD_ORACLE_STREAM_HH
