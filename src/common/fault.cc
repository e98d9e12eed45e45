#include "common/fault.hh"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/error.hh"
#include "common/logging.hh"

namespace elfsim {

namespace {

thread_local ExecContext *currentCtx = nullptr;

[[noreturn]] void
throwCancelled(const JobControl &ctl)
{
    switch (ctl.cancelReason()) {
      case CancelReason::Deadline:
        throw TimeoutError("job exceeded its wall-clock deadline");
      case CancelReason::Stalled:
        throw TimeoutError(
            "watchdog: committed-instruction heartbeat stalled");
      case CancelReason::Interrupted:
        throw CancelledError("sweep interrupted");
      case CancelReason::None:
        break;
    }
    throw CancelledError("job cancelled");
}

} // namespace

ExecContext *
currentExecContext()
{
    return currentCtx;
}

ScopedExecContext::ScopedExecContext(ExecContext &ctx) : prev(currentCtx)
{
    currentCtx = &ctx;
}

ScopedExecContext::~ScopedExecContext()
{
    currentCtx = prev;
}

void
ExecContext::poll(std::uint64_t tick, std::uint64_t committed)
{
    if (control) {
        control->heartbeat.store(committed, std::memory_order_relaxed);
        if (control->cancelled())
            throwCancelled(*control);
    }
    FaultInjector &inj = FaultInjector::instance();
    if (inj.armed())
        inj.poll(*this, tick);
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector inj;
    static const bool envArmed = [] {
        if (const char *env = std::getenv("ELFSIM_FAULT")) {
            if (*env) {
                try {
                    inj.arm(parse(env));
                } catch (const ConfigError &e) {
                    ELFSIM_FATAL("$ELFSIM_FAULT: %s", e.what());
                }
            }
        }
        return true;
    }();
    (void)envArmed;
    return inj;
}

std::vector<FaultSpec>
FaultInjector::parse(const std::string &spec)
{
    std::vector<FaultSpec> out;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t end = spec.find(',', start);
        if (end == std::string::npos)
            end = spec.size();
        const std::string item = spec.substr(start, end - start);
        start = end + 1;
        if (item.empty()) {
            if (start > spec.size())
                break;
            throw ConfigError("empty fault entry");
        }

        const std::size_t c1 = item.find(':');
        const std::size_t c2 =
            c1 == std::string::npos ? std::string::npos
                                    : item.find(':', c1 + 1);
        if (c1 == std::string::npos || c2 == std::string::npos)
            throw ConfigError(errorf(
                "bad fault entry '%s' (expected <site>:<job>:<tick>)",
                item.c_str()));

        const std::string site = item.substr(0, c1);
        const std::string job = item.substr(c1 + 1, c2 - c1 - 1);
        const std::string tick = item.substr(c2 + 1);

        FaultSpec s;
        if (site == "throw")
            s.kind = FaultKind::Throw;
        else if (site == "panic")
            s.kind = FaultKind::Panic;
        else if (site == "transient")
            s.kind = FaultKind::Transient;
        else if (site == "hang")
            s.kind = FaultKind::Hang;
        else if (site == "slow")
            s.kind = FaultKind::Slow;
        else if (site == "tracecache")
            s.kind = FaultKind::TraceCache;
        else if (site == "ckptcache")
            s.kind = FaultKind::CkptCache;
        else if (site == "warmtab")
            s.kind = FaultKind::WarmTables;
        else
            throw ConfigError(errorf(
                "unknown fault site '%s' (throw, panic, transient, "
                "hang, slow, tracecache, ckptcache, warmtab)",
                site.c_str()));

        const auto parseNum = [&](const std::string &v,
                                  const char *what) -> std::uint64_t {
            errno = 0;
            char *numEnd = nullptr;
            const unsigned long long n =
                std::strtoull(v.c_str(), &numEnd, 10);
            if (v.empty() || errno == ERANGE ||
                numEnd != v.c_str() + v.size() || v[0] == '-')
                throw ConfigError(errorf(
                    "bad %s '%s' in fault entry '%s'", what, v.c_str(),
                    item.c_str()));
            return n;
        };

        if (job == "*") {
            s.anyJob = true;
        } else {
            s.job = std::size_t(parseNum(job, "job index"));
        }
        s.tick = parseNum(tick, "tick");
        out.push_back(s);
    }
    return out;
}

void
FaultInjector::arm(std::vector<FaultSpec> specs)
{
    std::lock_guard<std::mutex> lk(mtx);
    armedFaults = std::move(specs);
}

void
FaultInjector::poll(const ExecContext &ctx, std::uint64_t tick)
{
    // Match under the lock, fire after releasing it: fire() may block
    // for seconds (hang) or throw, and must never hold the mutex the
    // arm()/read hooks on other threads need.
    std::vector<FaultSpec> matched;
    {
        std::lock_guard<std::mutex> lk(mtx);
        for (const FaultSpec &s : armedFaults) {
            if (s.kind == FaultKind::TraceCache ||
                s.kind == FaultKind::CkptCache ||
                s.kind == FaultKind::WarmTables)
                continue; // fires from its own hook, not here
            if (!s.anyJob && s.job != ctx.jobIndex)
                continue;
            if (tick < s.tick)
                continue;
            matched.push_back(s);
        }
    }
    for (const FaultSpec &s : matched)
        fire(s, ctx);
}

void
FaultInjector::fire(const FaultSpec &s, const ExecContext &ctx)
{
    switch (s.kind) {
      case FaultKind::Throw:
        throw InjectedError(errorf(
            "injected throw in job %zu at tick %llu", ctx.jobIndex,
            (unsigned long long)s.tick));
      case FaultKind::Panic:
        ELFSIM_PANIC("injected panic in job %zu at tick %llu",
                     ctx.jobIndex, (unsigned long long)s.tick);
      case FaultKind::Transient:
        if (ctx.attempt == 1)
            throw TransientError(errorf(
                "injected transient failure in job %zu (attempt 1)",
                ctx.jobIndex));
        return;
      case FaultKind::Hang: {
        // Simulated livelock: stop committing and wait for the
        // watchdog to notice the stalled heartbeat. A hard cap keeps
        // a misconfigured run (no watchdog armed) from blocking
        // forever.
        const auto giveUp = std::chrono::steady_clock::now() +
                            std::chrono::seconds(60);
        while (!ctx.control || !ctx.control->cancelled()) {
            if (std::chrono::steady_clock::now() > giveUp)
                throw InternalError(
                    "injected hang expired without cancellation "
                    "(no watchdog armed?)");
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
        }
        throwCancelled(*ctx.control);
      }
      case FaultKind::Slow:
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return;
      case FaultKind::TraceCache:
      case FaultKind::CkptCache:
      case FaultKind::WarmTables:
        return; // handled by the cache/warming hooks, never here
    }
}

bool
FaultInjector::matchesCurrentJob(FaultKind kind) const
{
    std::lock_guard<std::mutex> lk(mtx);
    for (const FaultSpec &s : armedFaults) {
        if (s.kind != kind)
            continue;
        if (s.anyJob)
            return true;
        const ExecContext *ctx = currentExecContext();
        // Precompilation happens before any job context exists; a
        // job-targeted spec still corrupts those shared loads so the
        // fault cannot be dodged by the precompile pass.
        if (!ctx || ctx->jobIndex == s.job)
            return true;
    }
    return false;
}

bool
FaultInjector::shouldCorruptTraceRead() const
{
    return matchesCurrentJob(FaultKind::TraceCache);
}

bool
FaultInjector::shouldCorruptCkptRead() const
{
    return matchesCurrentJob(FaultKind::CkptCache);
}

bool
FaultInjector::shouldPoisonWarmTables() const
{
    return matchesCurrentJob(FaultKind::WarmTables);
}

} // namespace elfsim
