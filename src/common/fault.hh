/**
 * @file
 * Per-job cancellation plumbing and the deterministic fault-injection
 * harness that drives the sweep engine's recovery tests.
 *
 * JobControl is the shared control block between a sweep worker and
 * the watchdog monitor: the worker publishes a committed-instruction
 * heartbeat from the Core::run poll point; the monitor (or a SIGINT
 * handler path) raises the cooperative cancellation flag with a
 * reason, and the worker notices at its next poll and unwinds with a
 * typed error. ExecContext carries the block (plus the job's identity)
 * through a thread-local so the core's hot loop needs no new
 * parameters — a run outside any sweep has a null context and pays
 * nothing.
 *
 * FaultInjector is armed from the environment:
 *
 *   ELFSIM_FAULT=<site>:<job>:<tick>[,<site>:<job>:<tick>...]
 *
 * where <site> names the fault to raise when job <job> (submission
 * index, or '*' for every job) reaches simulated cycle <tick> at a
 * poll point:
 *
 *   throw      raise InjectedError (cell -> failed)
 *   panic      trip ELFSIM_PANIC (exercises the recoverable-panic
 *              path; cell -> failed)
 *   transient  raise TransientError on the first attempt only
 *              (cell -> ok after one retry when retries are enabled)
 *   hang       stop committing and spin until the watchdog cancels
 *              (cell -> timeout; requires --stall or --deadline)
 *   slow       sleep 1 ms at every subsequent poll (cell -> timeout
 *              when a deadline is set, otherwise just slow)
 *   tracecache corrupt compiled-trace cache reads: the TraceCache
 *              behaves as if every matching on-disk artifact failed
 *              its checksum, forcing the transparent recompile path
 *              (cell -> ok, just slower; proves a poisoned cache can
 *              never fail a cell). The <tick> field is ignored —
 *              cache loads happen before simulated time starts.
 *   ckptcache  corrupt warm-state checkpoint reads: the
 *              CheckpointStore behaves as if every matching artifact
 *              failed its checksum, forcing the transparent
 *              fast-forward fallback (cell -> ok, just slower). The
 *              <tick> field is ignored, like tracecache.
 *   warmtab    bypass the batch warming kernel: fast-forward runs
 *              the scalar per-instruction loop instead, which reads
 *              the same compiled trace through the oracle stream
 *              (cell -> ok with identical warm state, just slower;
 *              keeps the scalar loop live and comparable). The
 *              <tick> field is ignored, like tracecache.
 *
 * Injection is deterministic: sites key on simulated cycles and the
 * job's submission index, never on wall-clock or thread identity.
 */

#ifndef ELFSIM_COMMON_FAULT_HH
#define ELFSIM_COMMON_FAULT_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace elfsim {

/** Why a job was asked to stop (JobControl::reason). */
enum class CancelReason : int
{
    None = 0,
    Deadline,    ///< per-job wall-clock deadline exceeded
    Stalled,     ///< committed-instruction heartbeat stopped advancing
    Interrupted, ///< global interrupt (SIGINT/SIGTERM)
};

/** Shared control block between one sweep job and the watchdog. */
struct JobControl
{
    std::atomic<bool> cancel{false};
    std::atomic<int> reason{int(CancelReason::None)};
    /** Committed instructions, published from the core's poll point. */
    std::atomic<std::uint64_t> heartbeat{0};

    /** First reason wins; later requests keep the original cause. */
    void
    requestCancel(CancelReason r)
    {
        int expected = int(CancelReason::None);
        reason.compare_exchange_strong(expected, int(r));
        cancel.store(true, std::memory_order_release);
    }

    bool
    cancelled() const
    {
        return cancel.load(std::memory_order_acquire);
    }

    CancelReason
    cancelReason() const
    {
        return CancelReason(reason.load());
    }

    /** Reset for a fresh attempt (bounded retries). */
    void
    reset()
    {
        cancel.store(false);
        reason.store(int(CancelReason::None));
        heartbeat.store(0);
    }
};

/**
 * Identity and control of the sweep job running on this thread.
 * Installed via ScopedExecContext around runSimulation; Core::run
 * polls it periodically (heartbeat, cancellation, fault injection).
 */
struct ExecContext
{
    std::size_t jobIndex = 0;
    unsigned attempt = 1; ///< 1-based; retries increment
    JobControl *control = nullptr;

    /**
     * Called from the core's run loop every few thousand cycles:
     * publishes the heartbeat, honors cancellation (throws
     * TimeoutError / CancelledError), and gives the fault injector
     * its deterministic hook. @a committed is the core's committed
     * instruction count, @a tick its cycle count.
     */
    void poll(std::uint64_t tick, std::uint64_t committed);
};

/** The context installed on this thread, or nullptr outside sweeps. */
ExecContext *currentExecContext();

/** RAII installer for the thread-local ExecContext. */
class ScopedExecContext
{
  public:
    explicit ScopedExecContext(ExecContext &ctx);
    ~ScopedExecContext();
    ScopedExecContext(const ScopedExecContext &) = delete;
    ScopedExecContext &operator=(const ScopedExecContext &) = delete;

  private:
    ExecContext *prev;
};

/** What an armed fault does when it fires. */
enum class FaultKind
{
    Throw,
    Panic,
    Transient,
    Hang,
    Slow,
    TraceCache,
    CkptCache,
    WarmTables
};

/** One armed fault: fire @a kind in job @a job at cycle @a tick. */
struct FaultSpec
{
    FaultKind kind = FaultKind::Throw;
    std::size_t job = 0;
    bool anyJob = false; ///< spec used '*' for the job field
    std::uint64_t tick = 0;
};

/** Deterministic fault-injection harness (see file comment). */
class FaultInjector
{
  public:
    /** Process-wide injector, armed from $ELFSIM_FAULT on first use
     *  (a malformed spec is a fatal user error). */
    static FaultInjector &instance();

    /** Parse a spec string; throws ConfigError on malformed input. */
    static std::vector<FaultSpec> parse(const std::string &spec);

    /** Replace the armed faults (tests; not thread-safe vs poll). */
    void arm(std::vector<FaultSpec> specs);

    /** Drop every armed fault. */
    void disarm() { arm({}); }

    /** True when any fault is armed (thread-safe: tests re-arm while
     *  sweep worker threads poll concurrently). */
    bool
    armed() const
    {
        std::lock_guard<std::mutex> lk(mtx);
        return !armedFaults.empty();
    }

    /** Deterministic hook called from ExecContext::poll. */
    void poll(const ExecContext &ctx, std::uint64_t tick);

    /**
     * Hook for the TraceCache's disk-read path: true when a
     * 'tracecache' fault is armed for the job on this thread (or for
     * every job, or when no job context is installed — precompilation
     * runs before any job starts). The tick field is ignored; see the
     * file comment.
     */
    bool shouldCorruptTraceRead() const;

    /** Same hook for the CheckpointStore's disk-read path ('ckptcache'
     *  faults; identical matching rules). */
    bool shouldCorruptCkptRead() const;

    /** Same hook for Core::fastForward's kernel dispatch ('warmtab'
     *  faults; identical matching rules): true means bypass the batch
     *  warming kernel and warm with the scalar loop instead. */
    bool shouldPoisonWarmTables() const;

  private:
    FaultInjector() = default;

    /**
     * Firing is stateless: throw/panic/transient end the attempt the
     * moment they fire, hang blocks until cancelled and then ends the
     * attempt, and slow deliberately re-fires at every poll. Matching
     * keys only on (job index, attempt, simulated cycle), so the
     * armed list is read-only after arm().
     */
    void fire(const FaultSpec &s, const ExecContext &ctx);

    /** True when a @a kind fault is armed for the job on this thread
     *  (or for every job, or when no job context is installed). */
    bool matchesCurrentJob(FaultKind kind) const;

    std::vector<FaultSpec> armedFaults;
    /** Guards armedFaults: arm() runs from test threads while sweep
     *  worker threads poll. (mutable: the read-side hooks are const.) */
    mutable std::mutex mtx;
};

} // namespace elfsim

#endif // ELFSIM_COMMON_FAULT_HH
