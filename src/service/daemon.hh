/**
 * @file
 * elfsimd — sweep-as-a-service. A long-running daemon that accepts
 * declarative SweepSpec requests (sim/sweep_spec.hh) over a local
 * HTTP/1.1 socket, queues them onto one shared SweepRunner, and
 * streams each request's elfsim-results-v2 document back
 * incrementally as cells complete.
 *
 * Endpoints:
 *
 *   GET  /healthz   liveness probe; 200 "ok"
 *   GET  /stats     elfsimd-stats-v1 JSON: request/queue/cell
 *                   counters plus the process-wide TraceCache and
 *                   CheckpointStore counters (the cross-request
 *                   cache-sharing evidence), all through the
 *                   StatGroup walk
 *   POST /sweep     body = elfsim-sweepspec-v1 JSON. Responds 200
 *                   with a chunked elfsim-results-v2 stream: the
 *                   document opens immediately and one result object
 *                   is appended per completed cell in submission
 *                   order — the accumulated bytes equal a CLI
 *                   writeResultsJson() of the same spec, byte for
 *                   byte. A malformed or semantically invalid spec
 *                   gets 400 with a one-line error body.
 *
 * Any other method/path answers 404.
 *
 * Execution model: request handlers only parse and enqueue; a single
 * executor thread drains the queue through one SweepRunner, so
 * concurrent clients serialize at sweep granularity and every request
 * shares the same process-wide warm TraceCache/CheckpointStore (the
 * second client's compile becomes a cache hit). Within one sweep the
 * runner's thread pool still parallelizes cells.
 *
 * Fault handling per request: the spec's own SweepPolicy applies
 * (deadline/stall/retries), except journaling — manifest_path/resume
 * are CLI-side concerns and are ignored here. A failing cell degrades
 * to a failed result in the stream. A client disconnect
 * (detected before the run, or by a failed chunk write during it)
 * raises the request's private SweepPolicy::cancelFlag: in-flight
 * cells cancel cooperatively, queued cells degrade to cancelled, and
 * the daemon moves on to the next request.
 */

#ifndef ELFSIM_SERVICE_DAEMON_HH
#define ELFSIM_SERVICE_DAEMON_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "service/http.hh"
#include "sim/sweep.hh"
#include "sim/sweep_spec.hh"

namespace elfsim {
namespace service {

/** Daemon configuration. */
struct ServiceConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0; ///< 0 = ephemeral (port() reports it)
    unsigned jobs = 0;      ///< sweep threads; 0 = auto

    /** SO_SNDTIMEO on response sockets (`--send-timeout`): how long a
     *  chunk write may stall on a non-reading client before the sweep
     *  degrades to cancelled. */
    long sendTimeoutSec = 30;
};

/** The sweep service (see file comment). */
class SweepService
{
  public:
    explicit SweepService(ServiceConfig cfg = {});
    ~SweepService();

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    /** Bind, listen, and spawn the accept + executor threads.
     *  Throws IoError when the address cannot be bound. */
    void start();

    /** Stop accepting, cancel the in-flight sweep, drain the queue
     *  with 503s, and join every thread. Idempotent. */
    void stop();

    /** The bound port (after start()). */
    std::uint16_t port() const { return boundPort_; }

    const ServiceConfig &config() const { return cfg; }

    /** Point-in-time service counters (what /stats serializes). */
    struct Counters
    {
        std::uint64_t requests = 0;      ///< HTTP requests accepted
        std::uint64_t badRequests = 0;   ///< 4xx responses
        std::uint64_t sweeps = 0;        ///< sweep runs completed
        std::uint64_t cellsOk = 0;
        std::uint64_t cellsFailed = 0;
        std::uint64_t cellsCancelled = 0;
        std::uint64_t queueDepth = 0;    ///< sweeps waiting
        std::uint64_t inflightCells = 0; ///< cells of the running sweep
                                         ///< not yet completed
        double lastCellsPerSec = 0;      ///< last finished sweep
    };

    Counters counters() const;

    /** The /stats document (elfsimd-stats-v1). */
    std::string statsJson() const;

  private:
    /** One queued sweep request; owns the client socket. */
    struct Pending
    {
        int fd = -1;
        SweepSpec spec;
        std::shared_ptr<std::atomic<bool>> cancel;
    };

    void acceptLoop();
    void handleConnection(int fd);
    void executorLoop();
    void executeSweep(Pending req);

    ServiceConfig cfg;
    /** Atomic: stop() retires the fd while acceptLoop still reads
     *  it to unblock the accept(2) call. */
    std::atomic<int> listenFd{-1};
    std::uint16_t boundPort_ = 0;

    std::thread acceptThread;
    std::thread executorThread;
    std::atomic<bool> stopping{false};
    std::atomic<unsigned> activeHandlers{0};

    mutable std::mutex queueMtx; ///< also guards currentCancel
    std::condition_variable queueCv;
    std::deque<Pending> queue;

    /** Cancel flag of the sweep the executor is running right now
     *  (null when idle); stop() raises it. */
    std::shared_ptr<std::atomic<bool>> currentCancel;

    SweepRunner runner; ///< shared across every request (executor only)

    // Stats (atomics: written by handlers + executor, read by /stats).
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> badRequests{0};
    std::atomic<std::uint64_t> sweeps{0};
    std::atomic<std::uint64_t> cellsOk{0};
    std::atomic<std::uint64_t> cellsFailed{0};
    std::atomic<std::uint64_t> cellsCancelled{0};
    std::atomic<std::uint64_t> inflightCells{0};
    std::atomic<double> lastCellsPerSec{0};
};

} // namespace service
} // namespace elfsim

#endif // ELFSIM_SERVICE_DAEMON_HH
