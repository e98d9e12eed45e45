#include "service/daemon.hh"

#include <cerrno>
#include <chrono>
#include <map>
#include <sstream>
#include <utility>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/error.hh"
#include "common/export.hh"
#include "common/logging.hh"
#include "service/http.hh"
#include "sim/export.hh"
#include "workload/checkpoint_store.hh"

namespace elfsim {
namespace service {

namespace {

/** A handler blocked on a silent client must not wedge the daemon
 *  forever: requests that take longer than this to arrive fail. */
constexpr long kRequestTimeoutSec = 10;

/** Has the peer torn the connection down? Only a hard error counts:
 *  an orderly FIN (recv == 0) is indistinguishable from the common
 *  request/response idiom of shutdown(SHUT_WR) after sending the
 *  request, where the client's read side is still open and waiting
 *  for the stream. Genuinely dead clients are caught by the failed
 *  chunk-write path, which raises the request's cancel flag. */
bool
peerGone(int fd)
{
    char b;
    const ssize_t n = ::recv(fd, &b, 1, MSG_PEEK | MSG_DONTWAIT);
    return n < 0 && (errno == ECONNRESET || errno == EPIPE);
}

} // namespace

SweepService::SweepService(ServiceConfig c)
    : cfg(std::move(c)), runner(cfg.jobs)
{
}

SweepService::~SweepService()
{
    stop();
}

void
SweepService::start()
{
    const int fd = listenTcp(cfg.host, cfg.port);
    boundPort_ = service::boundPort(fd);
    listenFd.store(fd, std::memory_order_release);
    stopping.store(false, std::memory_order_release);
    acceptThread = std::thread(&SweepService::acceptLoop, this);
    executorThread = std::thread(&SweepService::executorLoop, this);
}

void
SweepService::stop()
{
    if (stopping.exchange(true, std::memory_order_acq_rel))
        return;
    // Closing the listening socket unblocks accept().
    const int lfd = listenFd.exchange(-1, std::memory_order_acq_rel);
    if (lfd >= 0) {
        ::shutdown(lfd, SHUT_RDWR);
        ::close(lfd);
    }
    if (acceptThread.joinable())
        acceptThread.join();
    // Wait out in-flight connection handlers (they are quick: parse
    // and enqueue); they hold raw `this`.
    while (activeHandlers.load(std::memory_order_acquire) > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
        // Cancel the sweep the executor is running right now, if any.
        std::lock_guard<std::mutex> lk(queueMtx);
        if (currentCancel)
            currentCancel->store(true, std::memory_order_release);
    }
    queueCv.notify_all();
    if (executorThread.joinable())
        executorThread.join();
    // Turn away everything still queued.
    std::deque<Pending> leftovers;
    {
        std::lock_guard<std::mutex> lk(queueMtx);
        leftovers.swap(queue);
    }
    for (Pending &p : leftovers) {
        writeHttpResponse(p.fd, 503, "Service Unavailable",
                          "text/plain", "shutting down\n");
        ::close(p.fd);
    }
}

void
SweepService::acceptLoop()
{
    while (!stopping.load(std::memory_order_acquire)) {
        const int lfd = listenFd.load(std::memory_order_acquire);
        if (lfd < 0)
            break;
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // listening socket closed by stop()
        }
        struct timeval rcv = {kRequestTimeoutSec, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcv, sizeof(rcv));
        // A client that stops *reading* must not wedge the daemon:
        // chunk writes happen on the executor thread, so a blocked
        // send() would stall every queued sweep. A send stalled past
        // cfg.sendTimeoutSec fails; the failed-write path raises the
        // request's cancel flag and the sweep degrades to cancelled.
        struct timeval snd = {cfg.sendTimeoutSec, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &snd, sizeof(snd));
        activeHandlers.fetch_add(1, std::memory_order_acq_rel);
        std::thread([this, fd] {
            handleConnection(fd);
            activeHandlers.fetch_sub(1, std::memory_order_acq_rel);
        }).detach();
    }
}

void
SweepService::handleConnection(int fd)
{
    HttpRequest req;
    std::string err;
    if (!readHttpRequest(fd, req, err)) {
        badRequests.fetch_add(1, std::memory_order_relaxed);
        writeHttpResponse(fd, 400, "Bad Request", "text/plain",
                          err + "\n");
        ::close(fd);
        return;
    }
    requests.fetch_add(1, std::memory_order_relaxed);

    if (req.method == "GET" && req.path == "/healthz") {
        writeHttpResponse(fd, 200, "OK", "text/plain", "ok\n");
        ::close(fd);
        return;
    }
    if (req.method == "GET" && req.path == "/stats") {
        writeHttpResponse(fd, 200, "OK", "application/json",
                          statsJson());
        ::close(fd);
        return;
    }
    if (req.method == "POST" && req.path == "/sweep") {
        Pending p;
        try {
            p.spec = parseSweepSpec(std::string_view(req.body));
            validateSweepSpec(p.spec);
        } catch (const SimError &e) {
            badRequests.fetch_add(1, std::memory_order_relaxed);
            writeHttpResponse(fd, 400, "Bad Request", "text/plain",
                              std::string(e.what()) + "\n");
            ::close(fd);
            return;
        }
        p.fd = fd;
        p.cancel = std::make_shared<std::atomic<bool>>(false);
        {
            std::lock_guard<std::mutex> lk(queueMtx);
            if (stopping.load(std::memory_order_acquire)) {
                writeHttpResponse(fd, 503, "Service Unavailable",
                                  "text/plain", "shutting down\n");
                ::close(fd);
                return;
            }
            queue.push_back(std::move(p)); // fd ownership moves too
        }
        queueCv.notify_one();
        return;
    }
    badRequests.fetch_add(1, std::memory_order_relaxed);
    writeHttpResponse(fd, 404, "Not Found", "text/plain",
                      "unknown endpoint\n");
    ::close(fd);
}

void
SweepService::executorLoop()
{
    for (;;) {
        Pending p;
        {
            std::unique_lock<std::mutex> lk(queueMtx);
            queueCv.wait(lk, [this] {
                return !queue.empty() ||
                       stopping.load(std::memory_order_acquire);
            });
            if (queue.empty())
                return; // stopping; stop() flushes leftovers
            p = std::move(queue.front());
            queue.pop_front();
            currentCancel = p.cancel;
        }
        executeSweep(std::move(p));
        {
            std::lock_guard<std::mutex> lk(queueMtx);
            currentCancel.reset();
        }
        if (stopping.load(std::memory_order_acquire))
            return;
    }
}

void
SweepService::executeSweep(Pending req)
{
    // The client may have hung up while queued; don't burn a sweep on
    // a stream nobody reads.
    if (peerGone(req.fd)) {
        ::close(req.fd);
        return;
    }

    ExpandedSweep ex;
    try {
        ex = expandSweep(req.spec);
    } catch (const SimError &e) {
        // validateSweepSpec passed at enqueue time, so this is rare
        // (e.g. a workload generator failure) — still pre-stream, so
        // a clean error response is possible.
        badRequests.fetch_add(1, std::memory_order_relaxed);
        writeHttpResponse(req.fd, 400, "Bad Request", "text/plain",
                          std::string(e.what()) + "\n");
        ::close(req.fd);
        return;
    }

    // The request's own policy applies, minus journaling: manifests
    // and resume are CLI-side concerns, and a remote spec must not be
    // able to scribble files onto the server.
    SweepPolicy pol = req.spec.policy;
    pol.manifestPath.clear();
    pol.resume = false;
    pol.cancelFlag = req.cancel;
    runner.setPolicy(std::move(pol));
    runner.setBaseSeed(req.spec.baseSeed);

    ChunkedResponse stream(req.fd);
    stream.header(200, "OK", "application/json");

    // Completed cells arrive in completion order; buffer them and
    // release the in-order prefix, so the accumulated stream is byte-
    // identical to writeResultsJson() over the merged results.
    std::ostringstream buf;
    ResultsStreamWriter writer(buf);
    std::mutex streamMtx;
    std::map<std::size_t, RunResult> held;
    std::size_t next = 0;

    const auto flushChunk = [&] {
        std::string out = buf.str();
        if (out.empty())
            return;
        buf.str(std::string());
        if (!stream.write(out))
            req.cancel->store(true, std::memory_order_release);
    };

    // The observer captures this frame's locals; it must be detached
    // before they go out of scope on *every* path, including a throw
    // from run() below.
    struct ObserverGuard
    {
        SweepService &svc;
        ~ObserverGuard()
        {
            svc.runner.setCellObserver(nullptr);
            svc.inflightCells.store(0, std::memory_order_release);
        }
    } observerGuard{*this};

    inflightCells.store(ex.jobs.size(), std::memory_order_release);
    runner.setCellObserver([&](std::size_t i, const RunResult &r) {
        std::lock_guard<std::mutex> lk(streamMtx);
        inflightCells.fetch_sub(1, std::memory_order_acq_rel);
        held.emplace(i, r);
        while (!held.empty() && held.begin()->first == next) {
            writer.add(held.begin()->second);
            held.erase(held.begin());
            ++next;
        }
        flushChunk();
    });

    try {
        runner.run(ex.jobs);
    } catch (const std::exception &e) {
        // Per-cell failures degrade to failed results, but pre-run
        // machinery (trace compilation, pool setup) can still throw.
        // The stream is already open, so no clean error response is
        // possible — truncate it (the client sees a framing error)
        // and keep the daemon alive for the next request.
        ELFSIM_WARN("sweep aborted before completion: %s", e.what());
        cellsFailed.fetch_add(1, std::memory_order_relaxed);
        ::close(req.fd);
        return;
    }

    {
        std::lock_guard<std::mutex> lk(streamMtx);
        writer.finish();
        flushChunk();
    }
    stream.finish();
    ::close(req.fd);

    for (const RunResult &r : runner.results()) {
        if (r.ok())
            cellsOk.fetch_add(1, std::memory_order_relaxed);
        else if (r.status == JobStatus::Cancelled)
            cellsCancelled.fetch_add(1, std::memory_order_relaxed);
        else
            cellsFailed.fetch_add(1, std::memory_order_relaxed);
    }
    sweeps.fetch_add(1, std::memory_order_relaxed);
    const SweepTiming &t = runner.timing();
    lastCellsPerSec.store(
        t.wallSeconds > 0 ? double(t.jobs) / t.wallSeconds : 0,
        std::memory_order_relaxed);
}

SweepService::Counters
SweepService::counters() const
{
    Counters c;
    c.requests = requests.load(std::memory_order_relaxed);
    c.badRequests = badRequests.load(std::memory_order_relaxed);
    c.sweeps = sweeps.load(std::memory_order_relaxed);
    c.cellsOk = cellsOk.load(std::memory_order_relaxed);
    c.cellsFailed = cellsFailed.load(std::memory_order_relaxed);
    c.cellsCancelled = cellsCancelled.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(queueMtx);
        c.queueDepth = queue.size();
    }
    c.inflightCells = inflightCells.load(std::memory_order_relaxed);
    c.lastCellsPerSec = lastCellsPerSec.load(std::memory_order_relaxed);
    return c;
}

std::string
SweepService::statsJson() const
{
    const Counters c = counters();
    const TraceStats ts = TraceCache::instance().stats();
    const CkptStats ks = CheckpointStore::instance().stats();

    // Everything leaves through the uniform StatGroup walk, so the
    // document's shape matches every other stats export.
    stats::StatGroup service("service");
    service.addCounter("requests", "HTTP requests accepted") +=
        c.requests;
    service.addCounter("bad_requests", "4xx responses") +=
        c.badRequests;
    service.addCounter("sweeps", "sweep runs completed") += c.sweeps;
    service.addCounter("cells_ok", "cells completed ok") += c.cellsOk;
    service.addCounter("cells_failed", "cells failed") +=
        c.cellsFailed;
    service.addCounter("cells_cancelled", "cells cancelled") +=
        c.cellsCancelled;
    service.addCounter("queue_depth", "sweeps waiting") +=
        c.queueDepth;
    service.addCounter("inflight_cells",
                       "cells of the running sweep not yet done") +=
        c.inflightCells;
    service.addFormula("cells_per_sec",
                       "throughput of the last finished sweep",
                       [&c] { return c.lastCellsPerSec; });

    stats::StatGroup trace("trace");
    trace.addCounter("compiles", "traces compiled") += ts.compiles;
    trace.addCounter("cache_hits", "trace-cache hits") += ts.cacheHits;
    trace.addCounter("cache_misses", "trace-cache misses") +=
        ts.cacheMisses;
    trace.addCounter("bytes_mapped", "trace bytes mapped") +=
        ts.bytesMapped;
    trace.addFormula("compile_seconds", "wall-clock spent compiling",
                     [&ts] { return ts.compileSeconds; });

    stats::StatGroup ckpt("ckpt");
    ckpt.addCounter("hits", "checkpoints restored") += ks.hits;
    ckpt.addCounter("misses", "checkpoint lookups missed") +=
        ks.misses;
    ckpt.addCounter("saves", "checkpoints written") += ks.saves;
    ckpt.addCounter("load_failures", "corrupt artifacts skipped") +=
        ks.loadFailures;
    ckpt.addCounter("bytes_read", "checkpoint bytes read") +=
        ks.bytesRead;
    ckpt.addCounter("bytes_written", "checkpoint bytes written") +=
        ks.bytesWritten;

    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "elfsimd-stats-v1");
    w.key("service");
    stats::writeJson(w, service);
    w.key("trace");
    stats::writeJson(w, trace);
    w.key("ckpt");
    stats::writeJson(w, ckpt);
    w.endObject();
    os << '\n';
    return os.str();
}

} // namespace service
} // namespace elfsim
