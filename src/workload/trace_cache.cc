#include "workload/trace_cache.hh"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "common/error.hh"
#include "common/hash.hh"
#include "common/logging.hh"

namespace elfsim {

TraceCache::TraceCache()
{
    if (const char *env = std::getenv("ELFSIM_TRACE_CACHE")) {
        if (*env)
            dir = env;
    }
}

TraceCache &
TraceCache::instance()
{
    static TraceCache cache;
    return cache;
}

std::string
TraceCache::pathForKey(const std::string &name, std::uint64_t key) const
{
    return artifactPath(dir, name, key, ".etrace", "trace");
}

std::string
TraceCache::filePath(const Program &prog, InstCount count) const
{
    std::lock_guard<std::mutex> lock(mtx);
    if (dir.empty())
        return "";
    return pathForKey(prog.name(), CompiledTrace::key(prog, count));
}

std::shared_ptr<const CompiledTrace>
TraceCache::acquire(const Program &prog, InstCount count)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (!on)
        return nullptr;

    const std::uint64_t key = CompiledTrace::key(prog, count);
    if (auto it = memo.find(key); it != memo.end()) {
        ++counters.cacheHits;
        return it->second;
    }

    // On-disk artifact from an earlier process of the campaign. Any
    // defect — a flipped byte, stale key, torn write — demotes the
    // artifact to a recompile, never to a failure.
    if (!dir.empty()) {
        const std::string path = pathForKey(prog.name(), key);
        std::error_code ec;
        if (std::filesystem::exists(path, ec)) {
            try {
                std::shared_ptr<const CompiledTrace> t =
                    CompiledTrace::load(path, key);
                ++counters.cacheHits;
                counters.bytesMapped += t->mappedBytes();
                memo.emplace(key, t);
                return t;
            } catch (const SimError &e) {
                ELFSIM_WARN("trace cache: %s; recompiling '%s'",
                            e.what(), prog.name().c_str());
            }
        }
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::shared_ptr<const CompiledTrace> t =
        CompiledTrace::compile(prog, count);
    counters.compileSeconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0).count();
    ++counters.compiles;
    ++counters.cacheMisses;
    memo.emplace(key, t);

    if (!dir.empty()) {
        // Best-effort persist; a read-only or full cache directory
        // must not take the run down.
        try {
            std::error_code ec;
            std::filesystem::create_directories(dir, ec);
            t->save(pathForKey(prog.name(), key));
        } catch (const SimError &e) {
            ELFSIM_WARN("trace cache: %s (artifact not saved)",
                        e.what());
        }
    }
    return t;
}

void
TraceCache::setDirectory(std::string d)
{
    std::lock_guard<std::mutex> lock(mtx);
    dir = std::move(d);
}

std::string
TraceCache::directory() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return dir;
}

void
TraceCache::setEnabled(bool enable)
{
    std::lock_guard<std::mutex> lock(mtx);
    on = enable;
}

bool
TraceCache::enabled() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return on;
}

TraceStats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return counters;
}

void
TraceCache::clearMemory()
{
    std::lock_guard<std::mutex> lock(mtx);
    memo.clear();
    counters = TraceStats{};
}

} // namespace elfsim
