/**
 * @file
 * ELF divergence tracking (paper Section IV-C2): while the fetcher
 * runs in coupled mode, two aligned streams are recorded — what the
 * fetcher actually fetched (populated after Decode) and what the DCF
 * would have fetched (populated from arriving FAQ blocks) — and
 * compared pairwise. The (taken, branch, valid) bitvectors and the
 * taken-branch target queues of the paper are modeled as one queue of
 * per-instruction records per side with the same capacities: a
 * mismatch on (branch, taken) is a bitvector divergence, a mismatch
 * on the target of a taken branch is a target-queue divergence.
 *
 * Winner selection follows the paper: trust the DCF by default; trust
 * the fetcher when the DCF believed the stream was sequential but the
 * fetcher decoded a taken branch (BTB miss), and on direct-branch
 * target mismatches (the decoded target is authoritative).
 */

#ifndef ELFSIM_CORE_DIVERGENCE_HH
#define ELFSIM_CORE_DIVERGENCE_HH

#include <optional>

#include "common/queue.hh"
#include "common/types.hh"
#include "frontend/pipeline_types.hh"

namespace elfsim {

/** Capacities of the divergence-tracking hardware (Table II). */
struct DivergenceParams
{
    unsigned vecEntries = 64;    ///< per-instruction records per side
    unsigned targetEntries = 16; ///< in-flight taken-branch targets
};

/** Who is right about the stream. */
enum class DivergenceVerdict : std::uint8_t {
    TrustDcf,     ///< flush coupled instructions past the point
    TrustFetcher, ///< flush the DCF, continue coupled
};

/** A detected divergence. */
struct Divergence
{
    DivergenceVerdict verdict;
    SeqNum survivorSeq;   ///< the diverging coupled instruction
    SeqNum oracleCursor;  ///< cursor for the redirect (0 = wrong path)
    Addr continuation;    ///< where fetch resumes
    bool targetMismatch;  ///< target-queue (vs bitvector) divergence

    /**
     * When the DCF wins over a coupled branch, the machine now
     * believes the DCF's prediction for it: the in-flight instruction
     * must be re-predicted so execute validates against the new
     * belief (and so commit trains the decoupled predictors).
     */
    bool patchSurvivor = false;
    /** The DCF saw the branch in a BTB slot (its history bit was
     *  pushed speculatively). */
    bool patchFromSlot = false;
    /** The DCF record came from a BTB-miss guess block. */
    bool patchFromMiss = false;
    bool patchTaken = false;
    Addr patchTarget = invalidAddr;
    TagePrediction patchTage{};
    IttagePrediction patchIttage{};
};

/** Tracks and compares the two streams. */
class DivergenceTracker
{
  public:
    explicit DivergenceTracker(const DivergenceParams &params = {});

    /** Record a coupled-fetched instruction at decode. */
    void recordCoupled(const DynInst &di);

    /**
     * Record one instruction implied by an arriving FAQ block.
     *
     * @param is_branch The DCF knows a branch is here.
     * @param taken Predicted taken by the DCF.
     * @param kind Branch kind per the BTB.
     * @param next_pc The DCF's next fetch address after this
     *        instruction (target or fall-through).
     * @param tp TAGE prediction payload for conditionals.
     * @param ip ITTAGE prediction payload for indirects.
     */
    void recordDecoupled(bool is_branch, bool taken, BranchKind kind,
                         Addr pc, Addr next_pc,
                         const TagePrediction &tp = {},
                         const IttagePrediction &ip = {});

    /**
     * Consume matching front pairs; report the first mismatch.
     * Matching pairs are popped; a divergence leaves the queues
     * untouched (the caller resets the period).
     *
     * Two streams *diverge* only when their control flow differs:
     * taken disagreement, or taken-target disagreement. A coupled
     * record whose fetcher stalled (no prediction was made) adopts
     * the DCF's prediction without flushing: an adoption patch is
     * appended to @a adoptions and the pair is consumed.
     */
    std::optional<Divergence>
    compare(std::vector<Divergence> &adoptions);

    /** Free space on the coupled side (fetch stalls when exhausted). */
    unsigned coupledSpace() const;

    /** @return true iff compare() has a pair to consume or report;
     *  otherwise it changes nothing. */
    bool
    hasPair() const
    {
        return !coupled.empty() && !decoupled.empty();
    }

    /** Drop everything (period reset). */
    void reset();

    std::uint64_t bitvectorDivergences() const { return bitvecDivs; }
    std::uint64_t targetDivergences() const { return targetDivs; }

  private:
    struct Record
    {
        bool isBranch = false;
        bool taken = false;
        bool undecided = false; ///< coupled fetch stalled here
        BranchKind kind = BranchKind::None;
        Addr pc = invalidAddr;
        Addr nextPC = invalidAddr;
        SeqNum seq = 0;        ///< coupled side only
        SeqNum oracleIdx = 0;  ///< coupled side only
        bool wrongPath = false;
        TagePrediction tp{};      ///< decoupled side only
        IttagePrediction ip{};    ///< decoupled side only
    };

    unsigned takenCount(const BoundedQueue<Record> &q) const;

    DivergenceParams params;
    // Fixed rings sized to vecEntries: record traffic is constant in
    // steady state, so a deque would churn heap blocks every cycle.
    BoundedQueue<Record> coupled;
    BoundedQueue<Record> decoupled;
    std::uint64_t bitvecDivs = 0;
    std::uint64_t targetDivs = 0;
};

} // namespace elfsim

#endif // ELFSIM_CORE_DIVERGENCE_HH
