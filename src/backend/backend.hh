/**
 * @file
 * Simplified out-of-order back-end: rename/dispatch delay pipe and
 * ROB in one ring, wakeup/select issue with FU pools, load/store queue
 * with speculative memory disambiguation, and in-order commit.
 *
 * Renaming is idealized (the PRF bounds in-flight producers, WAR/WAW
 * never stall); dependencies flow through architectural registers via
 * a producer scoreboard that is rebuilt exactly on squash.
 */

#ifndef ELFSIM_BACKEND_BACKEND_HH
#define ELFSIM_BACKEND_BACKEND_HH

#include <functional>
#include <vector>

#include "backend/mem_dep.hh"
#include "cache/hierarchy.hh"
#include "common/queue.hh"
#include "common/types.hh"
#include "frontend/pipeline_types.hh"

namespace elfsim {

/** Back-end parameters (defaults = paper Table II). */
struct BackendParams
{
    unsigned robEntries = 256;
    unsigned iqEntries = 128;
    unsigned lsqEntries = 128;
    unsigned dispatchWidth = 8;  ///< fetch-through-rename width
    unsigned issueWidth = 9;
    unsigned commitWidth = 9;
    unsigned numAlu = 4;        ///< incl. the 2 mul/div-capable ones
    unsigned numMulDiv = 2;
    unsigned numLdSt = 2;
    unsigned numSimd = 2;
    unsigned numStData = 1;
    Cycle decodeToDispatch = 3;  ///< DEC -> IQ insertion (REN/REN/DISP)
    Cycle issueToExec = 3;       ///< issue selection -> EXE stage
    Cycle mulLatency = 3;
    Cycle divLatency = 12;
    Cycle fpLatency = 3;
};

/** Back-end statistics. */
struct BackendStats
{
    std::uint64_t committed = 0;        ///< committed instructions
    std::uint64_t committedBranches = 0;
    std::uint64_t condMispredicts = 0;  ///< committed direction misses
    std::uint64_t targetMispredicts = 0;
    std::uint64_t memOrderFlushes = 0;
    std::uint64_t robFullCycles = 0;    ///< cycles decode was held
                                        ///< for want of ROB room
    std::uint64_t coupledCommitted = 0; ///< committed insts fetched in
                                        ///< coupled mode

    /** Field visitor; the order is the checkpoint's. */
    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("committed", self.committed);
        v("committed_branches", self.committedBranches);
        v("cond_mispredicts", self.condMispredicts);
        v("target_mispredicts", self.targetMispredicts);
        v("mem_order_flushes", self.memOrderFlushes);
        v("rob_full_cycles", self.robFullCycles);
        v("coupled_committed", self.coupledCommitted);
    }
};

/**
 * The out-of-order back-end. The core pushes decoded instructions in
 * program order; the back-end reports branch resolutions and memory
 * order violations as redirect requests and retires instructions
 * through a commit callback.
 */
class Backend
{
  public:
    /** Called once per committed instruction, in program order. */
    using CommitHook = std::function<void(const DynInst &)>;

    Backend(const BackendParams &params, MemHierarchy &mem,
            MemDepPredictor &mdp);

    /** @return true iff the back-end can accept @a n more insts. */
    bool canAccept(unsigned n) const;

    /**
     * Decode's gate, asked once per cycle: canAccept(@a n) for a full
     * decode group of @a n. A refused cycle, in which decode is held
     * because the ROB and rename pipe lack room for the group, counts
     * as a rob-full cycle.
     */
    bool admitGroup(unsigned n);

    /** Accept one decoded instruction (program order). */
    void accept(DynInst &&di, Cycle now);

    /**
     * Advance one cycle: commit, execute completions, issue, and
     * dispatch. Branch mispredictions / order violations discovered
     * this cycle are merged into @a redirect if older than what it
     * already holds.
     * @return true iff any of the four acted. A cycle in which none
     * did changed no back-end state, so the next cycles are the same
     * idle cycle until nextWake().
     */
    bool tick(Cycle now, Redirect &redirect);

    /**
     * After a tick in which the back end did not act: the earliest
     * cycle at which it can act on its own, or neverCycle.
     * Its wake sources are the next completion event, and the oldest
     * undispatched instruction's readyAt while the IQ and LSQ have
     * room for it.
     */
    Cycle nextWake() const;

    /**
     * Account @a n skipped idle cycles the way ticking them would:
     * each refuses admitGroup(@a group) exactly when it is refused
     * now.
     */
    void
    skipIdle(unsigned group, Cycle n)
    {
        if (!canAccept(group))
            st.robFullCycles += n;
    }

    /**
     * Squash every instruction younger than @a survivor_seq and
     * rebuild the producer scoreboard.
     */
    void squashYoungerThan(SeqNum survivor_seq);

    /** Program-order scan of in-flight instructions (for history
     *  replay on flush). Includes the rename pipe. */
    template <typename Fn>
    void
    forEachInFlight(Fn &&fn) const
    {
        rob.forEach(fn);
    }

    /** Set the commit callback. */
    void setCommitHook(CommitHook hook) { commitHook = std::move(hook); }

    /** @return true iff a redirect for @a seq may be applied now
     *  (ELF: checkpoint payload pending delays it unless the
     *  instruction reached the ROB head). */
    bool atRobHead(SeqNum seq) const;

    /** Mutable lookup across the ROB and the rename pipe (used to
     *  apply ELF prediction patches and pending-flush marks). */
    DynInst *
    findInFlightMutable(SeqNum seq)
    {
        return findSeqInQueue(rob, seq);
    }

    /** In-flight instructions, the rename pipe included. */
    std::size_t robSize() const { return rob.size(); }
    bool empty() const { return rob.empty(); }

    /** Oldest dispatched instruction, or nullptr. */
    const DynInst *
    robHead() const
    {
        return robCount == 0 ? nullptr : &rob.front();
    }
    std::size_t iqSize() const { return iqCount; }
    std::size_t lsqSize() const { return lsq.size(); }
    std::size_t renamePipeSize() const { return rob.size() - robCount; }

    const BackendStats &stats() const { return st; }
    const BackendParams &config() const { return params; }

    /** Overwrite the cumulative statistics (warm-state restore; the
     *  pipeline itself is empty at every checkpoint boundary). */
    void restoreStats(const BackendStats &stats) { st = stats; }

  private:
    /**
     * LSQ entry: what the memory-dependence filter and the
     * store-to-load order check compare, copied at dispatch, plus the
     * instruction's stable ROB ring position for the rest (its
     * completion state). An entry lives exactly as long as its
     * instruction's ROB slot, so the position needs no re-validation.
     */
    struct LsqEntry
    {
        SeqNum seq = 0;
        std::uint32_t pos = 0;
        bool store = false; ///< else a load
        bool wrongPath = false;
        Addr pc = invalidAddr;
        Addr granule = 0;   ///< memAddr / 8: the overlap unit
    };

    /**
     * Scheduled completion of an issued instruction, filed in the
     * calendar bucket of its cycle so complete() touches only the
     * instructions finishing this cycle instead of scanning the whole
     * ROB. Squashes leave stale events behind; an event is validated
     * against the live ROB slot (position liveness + seq identity +
     * completeCycle) before it fires, so ghosts of squashed — or
     * squashed-and-replayed — instructions are simply dropped.
     */
    struct CompletionEvent
    {
        SeqNum seq = 0;
        std::uint32_t pos = 0;
        std::uint32_t next = 0; ///< next in the bucket or drained list
    };

    /** End of a bucket's (or the drained list's) event list. */
    static constexpr std::uint32_t noEvent = ~std::uint32_t(0);

    bool dispatch(Cycle now);
    bool issue(Cycle now);
    bool complete(Cycle now, Redirect &redirect);
    bool commit(Cycle now);
    void rebuildScoreboard();

    void schedule(Cycle cycle, SeqNum seq, std::uint32_t pos, Cycle now);
    /** First cycle from @a from on whose bucket holds an event, or
     *  neverCycle. */
    Cycle firstEventFrom(Cycle from) const;
    void clearCalendar();

    bool producerPending(SeqNum seq, std::uint32_t pos) const;
    bool operandsReady(const DynInst &di) const;
    void wake(std::uint32_t pos);
    Cycle execLatency(const DynInst &di, Cycle now);

    void markReady(std::size_t pos)
    {
        readyMask[pos / 64] |= std::uint64_t(1) << (pos % 64);
    }

    /** @return true iff ring position @a pos holds a dispatched
     *  instruction (rather than a rename-pipe one or nothing). */
    bool
    dispatchedPos(std::size_t pos) const
    {
        return rob.offsetOf(pos) < robCount;
    }

    BackendParams params;
    MemHierarchy &mem;
    MemDepPredictor &mdp;
    CommitHook commitHook;

    /**
     * Every in-flight instruction in program order, at a ring position
     * that is stable from accept to commit. The first robCount entries
     * are dispatched (the ROB proper); the rest are still in the
     * decode-to-dispatch pipe, and dispatch just advances robCount.
     * ROB plus rename pipe never exceed robEntries (canAccept).
     */
    BoundedQueue<DynInst> rob;
    std::size_t robCount = 0;
    /** Dispatched loads and stores, in program order. */
    BoundedQueue<LsqEntry> lsq;

    /**
     * Wakeup/select state, as bit sets over ROB ring positions. An
     * instruction dispatched with an incomplete producer (register
     * source or filtering store) sets its bit in that producer's
     * waiter row; complete() wakes the row, and an instruction whose
     * operands are all ready is in readyMask until it issues. Select
     * walks readyMask in ring order from the ROB head, which is age
     * order. A squash leaves its consumers' bits in their producers'
     * rows (and a squashed producer's row in place), so a woken slot
     * is re-checked against its owner's own recorded producer seqs.
     */
    std::size_t maskWords;              ///< 64-bit words per bit set
    std::vector<std::uint64_t> readyMask;
    std::vector<std::uint64_t> waiters; ///< robEntries rows of maskWords
    std::size_t iqCount = 0;            ///< dispatched, not yet issued

    /**
     * Pending completions as a calendar: one bucket per cycle over a
     * ring of calBuckets cycles (a power of two). The constructor
     * sizes the ring past the horizon, issueToExec plus the longest
     * execution latency the config allows (the worst-case load or
     * the mul/div/fp latency), so the pending events, all due within
     * the horizon, never share a bucket across cycles. A bucket is a
     * list threaded through calEvents, a pool reserved for an issue
     * width of events per horizon cycle, whose drained events are
     * recycled through calFree; calBusy has a bit per non-empty
     * bucket, so the next completion is a find-first-set.
     */
    Cycle calHorizon;
    std::size_t calBuckets;
    std::vector<CompletionEvent> calEvents;
    std::vector<std::uint32_t> calHead; ///< per bucket, or noEvent
    std::vector<std::uint64_t> calBusy;
    std::uint32_t calFree = noEvent;    ///< drained-event list
    std::size_t calPending = 0;         ///< events in the buckets
    /** The cycle complete() last ran at: every bucket up to it is
     *  drained. */
    Cycle drainedThrough = 0;
    /** Events due this cycle, sorted to ROB (seq) order. Member so
     *  the per-tick batch never allocates in steady state. */
    std::vector<CompletionEvent> compDue;

    /** Producer scoreboard per architectural register: seq and ROB
     *  ring position of the last writer. */
    std::vector<SeqNum> lastProducer;
    std::vector<std::uint32_t> lastProducerPos;

    BackendStats st;
};

} // namespace elfsim

#endif // ELFSIM_BACKEND_BACKEND_HH
