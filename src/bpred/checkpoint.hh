/**
 * @file
 * Structural model of the branch-prediction checkpoint queue
 * (Section IV-D of the paper).
 *
 * Functionally, flush recovery in this simulator restores the
 * speculative predictor history from the architectural one and
 * replays the resolved outcomes of in-flight older branches (see
 * PredictorBank). The checkpoint queue is therefore modeled
 * *structurally*: allocation (the front-end stalls when it is full),
 * retirement, squashing, and — the ELF-specific part — the
 * "payload pending" state of checkpoints claimed by instructions
 * fetched in coupled mode, whose payload is only populated once the
 * corresponding FAQ block arrives. An instruction whose checkpoint
 * payload is pending cannot trigger a pipeline flush yet.
 *
 * The payload's content is modeled too, as far as commit needs it:
 * the TAGE/ITTAGE lookups a branch was predicted with, which train
 * the predictors when it commits. Every fetched branch owns a
 * checkpoint for exactly its fetch-to-commit lifetime, so the payload
 * lives here rather than in the instruction.
 */

#ifndef ELFSIM_BPRED_CHECKPOINT_HH
#define ELFSIM_BPRED_CHECKPOINT_HH

#include <cstdint>
#include <vector>

#include "bpred/ittage.hh"
#include "bpred/tage.hh"
#include "common/logging.hh"
#include "common/queue.hh"
#include "common/types.hh"

namespace elfsim {

/** Sentinel id for "no checkpoint". */
constexpr std::uint64_t noCheckpoint = 0;

/**
 * Training state of one branch: the predictor lookups it was predicted
 * with. An invalid lookup makes commit re-predict on the architectural
 * history before training (see PredictorBank::commitBranch).
 */
struct CheckpointPayload
{
    TagePrediction tage;     ///< valid iff predicted by TAGE
    IttagePrediction ittage; ///< valid iff predicted by ITTAGE
};

/** Bounded queue of branch-prediction checkpoints. */
class CheckpointQueue
{
  public:
    explicit CheckpointQueue(std::size_t capacity = 512);

    /** @return true iff no entry can be allocated this cycle. */
    bool full() const { return entries.full(); }

    std::size_t size() const { return entries.size(); }
    std::size_t capacity() const { return cap; }

    /**
     * Allocate a checkpoint for the branch with sequence number
     * @a seq.
     *
     * @param payload_valid False for branches fetched in ELF coupled
     *        mode: the entry is claimed but its payload will only be
     *        populated from FAQ information later (fillPayload).
     * @return the checkpoint id (never noCheckpoint).
     */
    std::uint64_t allocate(SeqNum seq, bool payload_valid = true);

    /** @return true iff @a id is still live in the queue. */
    bool has(std::uint64_t id) const;

    /** @return true iff @a id is live and its payload is populated. */
    bool payloadReady(std::uint64_t id) const;

    /**
     * Training payload of the live checkpoint @a id, empty from
     * allocate() on. Live ids form a contiguous range no longer than
     * the capacity, so id % capacity names a slot no other live
     * checkpoint uses.
     */
    CheckpointPayload &
    payload(std::uint64_t id)
    {
        ELFSIM_ASSERT(has(id), "payload of a dead checkpoint");
        return payloads[id % cap];
    }

    /** Populate the payload of a pending checkpoint. */
    void fillPayload(std::uint64_t id);

    /** Populate payloads of all pending checkpoints with seq <= @a seq
     *  (FAQ information has caught up through that point). */
    void fillPayloadsUpTo(SeqNum seq);

    /** Drop entries belonging to squashed instructions (seq > given). */
    void squashYoungerThan(SeqNum seq);

    /** Release entries of retired instructions (seq <= given). */
    void retireUpTo(SeqNum seq);

    /** Drop everything. */
    void clear() { entries.clear(); }

  private:
    struct Entry
    {
        std::uint64_t id;
        SeqNum seq;
        bool payloadValid;
    };

    /** Index of @a id in entries, or -1. */
    long find(std::uint64_t id) const;

    std::size_t cap;
    BoundedQueue<Entry> entries;
    std::vector<CheckpointPayload> payloads; ///< by id % cap
    std::uint64_t nextId = 1;
};

} // namespace elfsim

#endif // ELFSIM_BPRED_CHECKPOINT_HH
