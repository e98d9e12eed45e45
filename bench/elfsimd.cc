/**
 * @file
 * elfsimd — the sweep-as-a-service daemon (service/daemon.hh). Binds
 * a loopback HTTP endpoint, then serves /healthz, /stats, and POST
 * /sweep (elfsim-sweepspec-v1 in, streamed elfsim-results-v2 out)
 * until SIGINT/SIGTERM.
 *
 *   elfsimd --port 8371 &
 *   curl -s http://127.0.0.1:8371/healthz
 *   curl -s --data-binary @fig7.spec.json http://127.0.0.1:8371/sweep
 *   curl -s http://127.0.0.1:8371/stats
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench_util.hh"
#include "service/daemon.hh"

using namespace elfsim;
using namespace elfsim::bench;

namespace {

void
printDaemonUsage(const char *argv0, std::FILE *to)
{
    std::fprintf(
        to,
        "usage: %s [options]\n"
        "  --host A        bind address (default 127.0.0.1)\n"
        "  --port N        listen port (default 0 = ephemeral; the "
        "bound port is printed)\n"
        "  --jobs N        sweep threads (default: $ELFSIM_JOBS, then "
        "hardware)\n"
        "  --send-timeout S  response-write stall limit in seconds "
        "(default 30);\n"
        "                  a client that stops reading for S seconds "
        "cancels its sweep\n"
        "  --trace-cache D persist compiled workload traces as "
        "content-keyed files in D\n"
        "  --no-trace      disable trace compilation (lazy "
        "per-instruction generation)\n"
        "  --ckpt-cache D  persist warm-state checkpoints as content-"
        "keyed files in D\n"
        "  --no-ckpt       disable checkpoint artifacts\n"
        "  --help          this text\n"
        "exit status: 0 ok, 1 bind/serve error, 2 usage error, "
        "130 interrupted\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    service::ServiceConfig cfg;
    std::string traceCacheDir, ckptCacheDir;
    bool noTrace = false, noCkpt = false;

    const auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: option '%s' needs a value\n",
                         argv[0], argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--host"))
            cfg.host = value(i);
        else if (!std::strcmp(argv[i], "--port"))
            cfg.port = std::uint16_t(
                parseCount(argv[0], "--port", value(i), 65535));
        else if (!std::strcmp(argv[i], "--jobs"))
            cfg.jobs = unsigned(
                parseCount(argv[0], "--jobs", value(i), UINT_MAX));
        else if (!std::strcmp(argv[i], "--send-timeout"))
            cfg.sendTimeoutSec = long(parseCount(
                argv[0], "--send-timeout", value(i), 86400));
        else if (!std::strcmp(argv[i], "--trace-cache"))
            traceCacheDir = value(i);
        else if (!std::strcmp(argv[i], "--no-trace"))
            noTrace = true;
        else if (!std::strcmp(argv[i], "--ckpt-cache"))
            ckptCacheDir = value(i);
        else if (!std::strcmp(argv[i], "--no-ckpt"))
            noCkpt = true;
        else if (!std::strcmp(argv[i], "--help") ||
                 !std::strcmp(argv[i], "-h")) {
            printDaemonUsage(argv[0], stdout);
            return 0;
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         argv[i]);
            printDaemonUsage(argv[0], stderr);
            return 2;
        }
    }

    if (noTrace)
        TraceCache::instance().setEnabled(false);
    if (!traceCacheDir.empty())
        TraceCache::instance().setDirectory(traceCacheDir);
    if (noCkpt)
        CheckpointStore::instance().setEnabled(false);
    if (!ckptCacheDir.empty())
        CheckpointStore::instance().setDirectory(ckptCacheDir);

    service::SweepService svc(cfg);
    try {
        svc.start();
    } catch (const SimError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
    std::printf("elfsimd listening on %s:%u\n", cfg.host.c_str(),
                unsigned(svc.port()));
    std::fflush(stdout);

    // Serve until SIGINT/SIGTERM raises the process-wide interrupt
    // flag (the same mechanism the sweep benches use for Ctrl-C).
    SweepRunner::clearInterrupt();
    SweepRunner::installSignalHandlers();
    while (!SweepRunner::interruptRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::printf("elfsimd shutting down\n");
    svc.stop();
    return 130;
}
