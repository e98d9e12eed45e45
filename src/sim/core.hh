/**
 * @file
 * The simulated core: owns every component, wires the pipeline, runs
 * the per-cycle loop, and centralizes flush/redirect handling.
 */

#ifndef ELFSIM_SIM_CORE_HH
#define ELFSIM_SIM_CORE_HH

#include <memory>
#include <vector>

#include "backend/backend.hh"
#include "bpred/checkpoint.hh"
#include "common/serialize.hh"
#include "bpred/predictor_bank.hh"
#include "btb/btb.hh"
#include "btb/btb_builder.hh"
#include "cache/hierarchy.hh"
#include "core/elf_controller.hh"
#include "frontend/decode.hh"
#include "frontend/supply.hh"
#include "sim/config.hh"
#include "sim/warm_kernel.hh"
#include "workload/oracle_stream.hh"
#include "workload/program.hh"
#include "workload/wrong_path.hh"

namespace elfsim {

/** Core-level counters (per-kind flush accounting). */
struct CoreStats
{
    Cycle cycles = 0;
    std::uint64_t execFlushes = 0;
    std::uint64_t memOrderFlushes = 0;
    std::uint64_t decodeResteers = 0;
    std::uint64_t divergenceFlushes = 0;
    std::uint64_t pendingFlushWaits = 0; ///< cycles a flush waited on
                                         ///< a checkpoint payload
    std::uint64_t stallResteers = 0;     ///< exec resolutions of
                                         ///< coupled-stalled branches

    /** Sum/count of (first fetch after redirect - redirect cycle) for
     *  branch-misprediction flushes: the measured restart latency
     *  (Figure 3's quantity). */
    std::uint64_t redirectToFetchTotal = 0;
    std::uint64_t redirectToFetchCount = 0;

    /** Field visitor; the order is the checkpoint's. */
    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("cycles", self.cycles);
        v("exec_flushes", self.execFlushes);
        v("mem_order_flushes", self.memOrderFlushes);
        v("decode_resteers", self.decodeResteers);
        v("divergence_flushes", self.divergenceFlushes);
        v("pending_flush_waits", self.pendingFlushWaits);
        v("stall_resteers", self.stallResteers);
        v("redirect_to_fetch_total", self.redirectToFetchTotal);
        v("redirect_to_fetch_count", self.redirectToFetchCount);
    }

    double
    avgRedirectToFetch() const
    {
        return redirectToFetchCount
                   ? double(redirectToFetchTotal) /
                         double(redirectToFetchCount)
                   : 0.0;
    }
};

/** The simulated core. */
class Core
{
  public:
    /**
     * @param trace Optional compiled architectural trace for @a prog
     *        (see workload/compiled_trace.hh), shared read-only with
     *        every other core simulating the same content; null keeps
     *        the oracle stream fully lazy. Behaviour-neutral either
     *        way — the compiled stream is the lazy stream.
     */
    Core(const SimConfig &cfg, const Program &prog,
         std::shared_ptr<const CompiledTrace> trace = nullptr);

    /** Advance exactly one cycle. */
    void tick();

    /**
     * Run until @a max_insts more instructions have committed: the
     * target is committed() at entry plus @a max_insts, so repeated
     * calls resume where the last one stopped. Panics after
     * noProgressCycles cycles without a commit (a deadlock
     * diagnostic). Every statistic reads as if each cycle were
     * ticked, but after a cycle in which no stage acted the clock
     * jumps to the earliest cycle at which one can act again (see
     * nextWake()), and the per-cycle counters are bulk-added for the
     * cycles skipped. A skip never passes the no-progress limit, so
     * the panic fires on the same cycle as when ticking.
     */
    void run(InstCount max_insts);

    /** Cycles without a commit after which run() panics. */
    static constexpr Cycle noProgressCycles = 100000;

    Cycle cycles() const { return coreStats.cycles; }
    InstCount committed() const { return backendUnit->stats().committed; }

    // --- component access for reporting ------------------------------
    const Backend &backend() const { return *backendUnit; }
    const ElfController &elf() const { return *controller; }
    const MemHierarchy &memory() const { return *mem; }
    const MultiBtb &btb() const { return *btbHier; }
    const InstSupply &supply() const { return *instSupply; }
    const PredictorBank &predictors() const { return *bank; }
    const CoreStats &stats() const { return coreStats; }
    const SimConfig &config() const { return cfg; }

    /**
     * The stat tree: call @a v(group, counters) once for every
     * counter struct of the simulated machine. A no-DCF core has no
     * decoupled front end, so its DCF and FAQ-fetch groups are
     * skipped.
     */
    template <typename V>
    void
    visitStats(V &&v) const
    {
        v("core", coreStats);
        v("backend", backendUnit->stats());
        v("elf", controller->stats());
        if (cfg.variant != FrontendVariant::NoDcf) {
            v("dcf", controller->dcf().stats());
            v("fetch", controller->decoupledEngine().stats());
        }
        v("coupled", controller->coupledEngine().stats());
        v("decode", decodeStage->stats());
        btbHier->visitStats(v);
        v("btb_builder", builder->stats());
        mem->visitStats(v);
        v("mem_dep", memDep->stats());
    }

    /** Dump pipeline state to stderr (deadlock diagnostics). */
    void debugDump() const;

    /**
     * Install an observer invoked for every committed instruction in
     * program order (tracing, custom metrics in examples/benches).
     */
    void
    setCommitObserver(std::function<void(const DynInst &)> obs)
    {
        commitObserver = std::move(obs);
    }

    // --- sampled simulation (see sim/runner.cc) ----------------------

    /**
     * Squash everything younger than the last committed instruction
     * and restart the front-end at the next architectural index —
     * a flush into the committed state. Afterwards the pipeline is
     * quiesced: the machine holds only warm structural state.
     */
    void squashToCommitted();

    /**
     * Functional warming: consume @a n architectural instructions,
     * updating only the predictors (TAGE/ITTAGE/BTB/RAS, coupled
     * predictors) and the cache hierarchy — no fetch/rename/ROB/IQ
     * timing. Requires a quiesced pipeline (squashToCommitted).
     * committed() does not advance; consumedInsts() does. The part
     * of the window inside the compiled prefix runs the batch
     * warming kernel (sim/warm_kernel.cc), the rest the scalar loop.
     */
    void fastForward(InstCount n) { functionalWarm(n, true); }

    /**
     * fastForward() through the scalar per-instruction loop alone,
     * even inside the compiled prefix: the reference the batch
     * kernel is tested against (test_warm_kernel). Leaves the same
     * warm state as fastForward(); only warmStats() tells them apart.
     */
    void fastForwardScalar(InstCount n) { functionalWarm(n, false); }

    /**
     * Architectural stream position: instructions consumed so far,
     * by detailed commit or by fast-forward.
     */
    InstCount consumedInsts() const { return lastCommitOracleIdx; }

    /** The architectural stream (checkpoint resume bookkeeping). */
    OracleStream &oracleStream() { return *oracle; }

    /**
     * Oracle-generator resume state captured at the end of the last
     * fastForward(), at the exact moment the stream position equaled
     * consumedInsts() (any later access generates ahead and advances
     * the live generator). Valid only when the generator was active
     * there — i.e. past the compiled prefix, or fully lazy.
     */
    bool ffResumeStateValid() const { return ffGenStateValid; }
    const OracleGen &ffResumeState() const { return ffGenState; }

    /** Cumulative functional-warming work counters (see
     *  sim/warm_kernel.hh); monotonic across fastForward() calls. */
    const WarmStats &warmStats() const { return warmStats_; }

    /**
     * Serialize the complete warm state — every structure
     * fastForward() warms plus the cumulative counters run results
     * derive from — such that loadWarmState() on a freshly
     * constructed Core (same config, same program) resumes
     * byte-identically.
     */
    void saveWarmState(Serializer &s) const;

    /**
     * Restore a saveWarmState() payload and reposition the stream so
     * the next instruction consumed is @a position + 1. @a gen_state
     * (nullable) is the checkpointed oracle-generator resume state;
     * required only when @a position lies past the compiled prefix.
     * Throws ParseError on any payload/geometry mismatch — callers
     * treat that as "checkpoint unusable, fast-forward instead".
     */
    void loadWarmState(Deserializer &d, InstCount position,
                       const OracleGen *gen_state);

  private:
    /** One cycle. @return true iff any stage acted, i.e. changed
     *  state beyond the per-cycle counters. */
    bool step();
    /** After a cycle in which no stage acted: the earliest cycle at
     *  which one can act, or neverCycle. */
    Cycle nextWake() const;
    /** Move the clock from an idle cycle to @a until, counting the
     *  skipped cycles as ticking them would. */
    void skipIdle(Cycle until);
    /** Fetch's gate: the fetch buffer has room for a whole group. */
    bool canFetch() const;

    void applyRedirect(Redirect r);
    void applyPatches(Redirect &redirect, Cycle now);
    bool historyVisible(const StaticInst &si) const;

    /** fastForward() (@a use_kernel) or fastForwardScalar(). */
    void functionalWarm(InstCount n, bool use_kernel);

    /**
     * Batch functional warming over the compiled trace's event tables
     * (sim/warm_kernel.cc): warm @a kn instructions starting at
     * 0-based stream position @a p0 (== lastCommitOracleIdx), with
     * @a last_line the live I-line dedup register shared with the
     * scalar loop (in/out, for windows straddling the prefix end).
     * State after the call is byte-identical to @a kn scalar
     * fast-forward iterations. @a p0 + @a kn must lie within the
     * compiled prefix. Returns the PC of the next instruction, the
     * one at position @a p0 + @a kn.
     */
    Addr warmKernel(const CompiledTrace &tr, InstCount p0,
                    InstCount kn, Addr &last_line);
    DynInst *findInFlight(SeqNum seq);
    /** findInFlight, falling back to the fetch-to-decode buffer
     *  (binary search — both structures are seq-ordered). */
    DynInst *findAnywhere(SeqNum seq);
    void replayHistory(const Redirect &r);
    void onCommit(const DynInst &di);

    SimConfig cfg;
    const Program &prog;

    std::unique_ptr<OracleStream> oracle;
    std::unique_ptr<WrongPathWalker> walker;
    std::unique_ptr<InstSupply> instSupply;
    std::unique_ptr<MemHierarchy> mem;
    std::unique_ptr<PredictorBank> bank;
    std::unique_ptr<MultiBtb> btbHier;
    std::unique_ptr<BtbBuilder> builder;
    std::unique_ptr<CheckpointQueue> ckpts;
    std::unique_ptr<Faq> faq;
    std::unique_ptr<ElfController> controller;
    std::unique_ptr<DecodeStage> decodeStage;
    std::unique_ptr<MemDepPredictor> memDep;
    std::unique_ptr<Backend> backendUnit;

    /** Fetch appends here and decode works in place; the back end
     *  takes each decoded instruction from the front. */
    std::unique_ptr<BoundedQueue<DynInst>> fetchToDecode;

    /** A flush waiting for its checkpoint payload (ELF). */
    Redirect heldRedirect;

    /** Cycle of the last applied mispredict flush (restart-latency
     *  measurement); 0 = not measuring. */
    Cycle measureRedirectCycle = 0;

    std::function<void(const DynInst &)> commitObserver;

    /** Last committed instruction (sampling squash/resume points). */
    SeqNum lastCommitSeq = 0;
    SeqNum lastCommitOracleIdx = 0;

    /** See ffResumeState(). */
    OracleGen ffGenState;
    bool ffGenStateValid = false;

    CoreStats coreStats;
    WarmStats warmStats_;
};

} // namespace elfsim

#endif // ELFSIM_SIM_CORE_HH
