/**
 * @file
 * elfsimd sweep-service tests: request/stream framing, byte identity
 * of streamed results against an in-process SweepRunner, concurrent
 * clients sharing the warm trace cache, thread-count independence,
 * malformed-request rejection, client-disconnect survival, and an
 * injected fault degrading to one failed cell in the stream.
 *
 * Every test binds an ephemeral loopback port (ServiceConfig.port=0),
 * so tests never collide with each other or a real daemon.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "service/daemon.hh"
#include "service/http.hh"
#include "sim/export.hh"
#include "sim/sweep_spec.hh"

using namespace elfsim;
using service::HttpResponse;
using service::ServiceConfig;
using service::SweepService;

namespace {

/** A fast four-cell sweep: two micro-programs x two frontends. */
SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.name = "svc_test";
    spec.run.warmupInsts = 2000;
    spec.run.measureInsts = 4000;
    SweepGroup g;
    g.workloads = {
        WorkloadSelector::micro("random_branch_loop", {8, 0.5}),
        WorkloadSelector::micro("random_branch_loop", {4, 0.9}),
    };
    g.configs = {ConfigSpec(FrontendVariant::Dcf),
                 ConfigSpec(FrontendVariant::UElf)};
    spec.groups.push_back(std::move(g));
    return spec;
}

std::string
specBody(const SweepSpec &spec)
{
    std::ostringstream os;
    writeSweepSpec(os, spec);
    return os.str();
}

/** The bytes a CLI run of @a spec would export. */
std::string
referenceBytes(const SweepSpec &spec)
{
    const ExpandedSweep ex = expandSweep(spec);
    SweepRunner runner(1);
    runner.setPolicy(spec.policy);
    runner.setBaseSeed(spec.baseSeed);
    const std::vector<RunResult> res = runner.run(ex.jobs);
    std::ostringstream os;
    writeResultsJson(os, res);
    return os.str();
}

/** Arm the process-wide injector for one test, disarm on exit. */
class ArmedFaults
{
  public:
    explicit ArmedFaults(const std::string &spec)
    {
        FaultInjector::instance().arm(FaultInjector::parse(spec));
    }
    ~ArmedFaults() { FaultInjector::instance().disarm(); }
};

} // namespace

TEST(Service, HealthzAndUnknownPath)
{
    SweepService svc;
    svc.start();
    const HttpResponse hz = service::httpFetch(
        "127.0.0.1", svc.port(), "GET", "/healthz", {});
    EXPECT_EQ(hz.status, 200);
    EXPECT_EQ(hz.body, "ok\n");

    const HttpResponse nf = service::httpFetch(
        "127.0.0.1", svc.port(), "GET", "/nope", {});
    EXPECT_EQ(nf.status, 404);
    for (const char *path : {"/shard", "/artifact/trace"}) {
        const HttpResponse gone = service::httpFetch(
            "127.0.0.1", svc.port(), "POST", path, "x");
        EXPECT_EQ(gone.status, 404) << path;
    }
    svc.stop();
}

TEST(Service, SweepStreamsByteIdenticalResults)
{
    const SweepSpec spec = tinySpec();
    const std::string expected = referenceBytes(spec);

    SweepService svc;
    svc.start();
    const HttpResponse r = service::httpFetch(
        "127.0.0.1", svc.port(), "POST", "/sweep", specBody(spec));
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, expected);

    // The streamed document is itself a valid elfsim-results-v2.
    const json::Value doc = json::parse(r.body);
    EXPECT_EQ(doc.at("schema").asString(), "elfsim-results-v2");
    EXPECT_EQ(doc.at("results").size(), 4u);
    svc.stop();
}

TEST(Service, ThreadCountDoesNotChangeTheBytes)
{
    const SweepSpec spec = tinySpec();
    std::string bytes[2];
    for (unsigned i = 0; i < 2; ++i) {
        ServiceConfig cfg;
        cfg.jobs = i == 0 ? 1 : 4;
        SweepService svc(cfg);
        svc.start();
        const HttpResponse r =
            service::httpFetch("127.0.0.1", svc.port(), "POST",
                               "/sweep", specBody(spec));
        EXPECT_EQ(r.status, 200);
        bytes[i] = r.body;
        svc.stop();
    }
    EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(Service, ConcurrentClientsShareTheWarmCaches)
{
    const SweepSpec spec = tinySpec();
    const std::string expected = referenceBytes(spec);
    const std::string body = specBody(spec);

    SweepService svc;
    svc.start();
    std::atomic<unsigned> bad{0};
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < 4; ++c)
        clients.emplace_back([&] {
            try {
                const HttpResponse r =
                    service::httpFetch("127.0.0.1", svc.port(),
                                       "POST", "/sweep", body);
                if (r.status != 200 || r.body != expected)
                    ++bad;
            } catch (const SimError &) {
                ++bad;
            }
        });
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(bad.load(), 0u);

    // Identical requests serialized through one runner: every sweep
    // after the first recompiles nothing. The sweeps counter is
    // incremented just after the last response byte goes out, so
    // poll briefly instead of racing it.
    std::uint64_t sweepsSeen = 0, traceHits = 0;
    for (int tries = 0; tries < 100; ++tries) {
        const HttpResponse st = service::httpFetch(
            "127.0.0.1", svc.port(), "GET", "/stats", {});
        ASSERT_EQ(st.status, 200);
        const json::Value doc = json::parse(st.body);
        EXPECT_EQ(doc.at("schema").asString(), "elfsimd-stats-v1");
        sweepsSeen = doc.at("service").at("service.sweeps").asU64();
        traceHits = doc.at("trace").at("trace.cache_hits").asU64();
        if (sweepsSeen >= 4)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_GE(sweepsSeen, 4u);
    EXPECT_GT(traceHits, 0u);
    svc.stop();
}

TEST(Service, MalformedRequestsGet400)
{
    SweepService svc;
    svc.start();

    const HttpResponse junk = service::httpFetch(
        "127.0.0.1", svc.port(), "POST", "/sweep", "not json");
    EXPECT_EQ(junk.status, 400);

    const HttpResponse badField = service::httpFetch(
        "127.0.0.1", svc.port(), "POST", "/sweep",
        "{\"schema\":\"elfsim-sweepspec-v1\",\"wrkloads\":[]}");
    EXPECT_EQ(badField.status, 400);

    const HttpResponse badWorkload = service::httpFetch(
        "127.0.0.1", svc.port(), "POST", "/sweep",
        "{\"schema\":\"elfsim-sweepspec-v1\","
        "\"workloads\":[{\"name\":\"no.such\"}],"
        "\"configs\":[{\"variant\":\"DCF\"}]}");
    EXPECT_EQ(badWorkload.status, 400);

    // The daemon is still perfectly serviceable afterwards.
    const SweepSpec spec = tinySpec();
    const HttpResponse ok = service::httpFetch(
        "127.0.0.1", svc.port(), "POST", "/sweep", specBody(spec));
    EXPECT_EQ(ok.status, 200);
    EXPECT_EQ(ok.body, referenceBytes(spec));
    svc.stop();
}

TEST(Service, ClientDisconnectDoesNotKillTheDaemon)
{
    const SweepSpec spec = tinySpec();
    const std::string body = specBody(spec);

    SweepService svc;
    svc.start();

    // Submit a sweep and hang up without reading the response.
    {
        const int fd = service::connectTcp("127.0.0.1", svc.port());
        std::ostringstream req;
        req << "POST /sweep HTTP/1.1\r\ncontent-length: "
            << body.size() << "\r\n\r\n"
            << body;
        ASSERT_TRUE(service::writeAll(fd, req.str()));
        ::close(fd);
    }

    // The next client still gets full, correct service.
    const HttpResponse r = service::httpFetch(
        "127.0.0.1", svc.port(), "POST", "/sweep", body);
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, referenceBytes(spec));

    const HttpResponse hz = service::httpFetch(
        "127.0.0.1", svc.port(), "GET", "/healthz", {});
    EXPECT_EQ(hz.status, 200);
    svc.stop();
}

TEST(Service, StatsExposeQueueDepthAndThroughput)
{
    SweepService svc;
    svc.start();

    const HttpResponse r = service::httpFetch(
        "127.0.0.1", svc.port(), "POST", "/sweep",
        specBody(tinySpec()));
    ASSERT_EQ(r.status, 200);

    // The sweep counters land just after the last response byte goes
    // out; poll briefly instead of racing them.
    json::Value doc;
    for (int tries = 0; tries < 100; ++tries) {
        const HttpResponse st = service::httpFetch(
            "127.0.0.1", svc.port(), "GET", "/stats", {});
        ASSERT_EQ(st.status, 200);
        doc = json::parse(st.body);
        if (doc.at("service").at("service.sweeps").asU64() >= 1)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const json::Value &service = doc.at("service");
    EXPECT_EQ(service.at("service.sweeps").asU64(), 1u);

    // Scheduling observability: an idle daemon reports an empty
    // queue and no in-flight cells, and the last finished sweep's
    // cell throughput is a positive rate.
    EXPECT_EQ(service.at("service.queue_depth").asU64(), 0u);
    EXPECT_EQ(service.at("service.inflight_cells").asU64(), 0u);
    EXPECT_GT(service.at("service.cells_per_sec").asDouble(), 0.0);
    svc.stop();
}

TEST(Service, InjectedFaultDegradesToAFailedCell)
{
    // Job 0 of every sweep throws; the sweep turns that into one
    // failed cell in an otherwise complete stream, and the daemon
    // stays up for the next request.
    ArmedFaults armed("throw:0:0");

    const SweepSpec spec = tinySpec();

    SweepService svc;
    svc.start();
    const HttpResponse r = service::httpFetch(
        "127.0.0.1", svc.port(), "POST", "/sweep", specBody(spec));
    EXPECT_EQ(r.status, 200);

    const json::Value doc = json::parse(r.body);
    ASSERT_EQ(doc.at("results").size(), 4u);
    EXPECT_EQ(doc.at("results")[0].at("status").asString(),
              jobStatusName(JobStatus::Failed));
    for (std::size_t i = 1; i < 4; ++i)
        EXPECT_EQ(doc.at("results")[i].at("status").asString(),
                  jobStatusName(JobStatus::Ok));

    const HttpResponse hz = service::httpFetch(
        "127.0.0.1", svc.port(), "GET", "/healthz", {});
    EXPECT_EQ(hz.status, 200);
    svc.stop();
}

TEST(Service, HalfClosedClientStillGetsTheStream)
{
    // Request/response idiom: send the request, shutdown(SHUT_WR) to
    // mark end-of-request, then read the whole response. The daemon
    // must not mistake the FIN for an abandoned client.
    const SweepSpec spec = tinySpec();
    const std::string body = specBody(spec);
    const std::string expected = referenceBytes(spec);

    SweepService svc;
    svc.start();

    const int fd = service::connectTcp("127.0.0.1", svc.port());
    std::ostringstream req;
    req << "POST /sweep HTTP/1.1\r\ncontent-length: " << body.size()
        << "\r\n\r\n"
        << body;
    ASSERT_TRUE(service::writeAll(fd, req.str()));
    ::shutdown(fd, SHUT_WR);

    const HttpResponse r = service::readHttpResponse(fd);
    ::close(fd);
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, expected);
    svc.stop();
}

TEST(Service, StopWhileIdleIsClean)
{
    SweepService svc;
    svc.start();
    svc.stop();
    svc.stop(); // idempotent
}
