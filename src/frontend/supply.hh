/**
 * @file
 * Instruction materialization shared by the decoupled and coupled
 * fetch paths: given a fetch address, produce a DynInst bound either
 * to the architectural (oracle) stream or to the wrong path.
 *
 * The supply tracks the architectural cursor: while the fetch address
 * equals the next architectural PC, instructions are correct-path and
 * carry their resolved outcome; the first deviation latches
 * wrong-path mode until the next redirect. This is the standard
 * oracle-assisted wrong-path model — wrong-path instructions are real
 * instructions from the static image (or fabricated NOPs off the
 * image) and access the caches before being squashed.
 */

#ifndef ELFSIM_FRONTEND_SUPPLY_HH
#define ELFSIM_FRONTEND_SUPPLY_HH

#include "frontend/pipeline_types.hh"
#include "workload/oracle_stream.hh"
#include "workload/wrong_path.hh"

namespace elfsim {

/** Materializes DynInsts for fetch addresses. */
class InstSupply
{
  public:
    InstSupply(OracleStream &oracle, WrongPathWalker &walker)
        : oracle(oracle), walker(walker)
    {}

    /**
     * Materialize the instruction at @a pc into @a di, overwriting all
     * of it (fetch builds it in place, in its fetch-buffer slot).
     *
     * Correct-path instructions get their resolved outcome
     * (taken/target/memory address) from the oracle; wrong-path
     * instructions resolve branches to "whatever was predicted" (set
     * by the caller) and sample wrong-path memory addresses. A
     * misaligned wrong-path pc panics.
     */
    void make(DynInst &di, Addr pc, Cycle now, FetchMode mode);

    /** @return true iff the supply is latched on the wrong path. */
    bool onWrongPath() const { return wrongPath; }

    /** Next architectural index to fetch. */
    SeqNum cursor() const { return oracleCursor; }

    /** PC the correct path resumes at (for redirects). */
    Addr correctPC() { return oracle.pcAt(oracleCursor); }

    /**
     * Redirect: resume the correct path at architectural index
     * @a cursor (clears the wrong-path latch).
     */
    void
    redirect(SeqNum cursor)
    {
        oracleCursor = cursor;
        wrongPath = false;
    }

    /** Sequence number that the next materialized inst will get. */
    SeqNum nextSeq() const { return seqCounter + 1; }

    /** Total wrong-path instructions materialized. */
    std::uint64_t wrongPathInsts() const { return wrongPathCount; }

    /**
     * Restore counters from a warm-state checkpoint. The sequence
     * counter salts wrong-path memory addresses, so byte-identical
     * resumed runs must restore it, not just the cursor.
     */
    void
    restoreCounters(SeqNum seq_counter, std::uint64_t wrong_path_insts)
    {
        seqCounter = seq_counter;
        wrongPathCount = wrong_path_insts;
    }

    /** Raw sequence counter (checkpoint payload; see restoreCounters). */
    SeqNum seqCount() const { return seqCounter; }

  private:
    OracleStream &oracle;
    WrongPathWalker &walker;
    SeqNum seqCounter = 0;
    SeqNum oracleCursor = 1;
    bool wrongPath = false;
    std::uint64_t wrongPathCount = 0;
};

} // namespace elfsim

#endif // ELFSIM_FRONTEND_SUPPLY_HH
