/**
 * @file
 * Process-wide cache of compiled architectural traces.
 *
 * The TraceCache is the sharing point of the trace-compilation layer:
 * every consumer that wants a workload's compiled stream asks it, and
 * each distinct (program content, instruction count) pair is compiled
 * at most once per process — the in-memory memo hands the same
 * immutable CompiledTrace to every sweep cell and every bench.
 *
 * With a cache directory configured (--trace-cache DIR on the benches,
 * $ELFSIM_TRACE_CACHE, or TraceCache::setDirectory), traces also
 * persist across processes as content-keyed "elfsim-trace-v4" files
 * (the event tables and the generator end state, 3.9 to 6.5 bytes per
 * instruction): the first process of a campaign compiles and saves,
 * the rest map the file read-only. Staleness and corruption are
 * detected by the file's magic, key, lengths, checksum (Checksum64
 * over the header scalars and every section byte) and table structure
 * (see CompiledTrace); any load failure logs a warning and falls back
 * to recompiling, so a poisoned cache can slow a run down but never
 * fail it (test_compiled_trace's
 * TraceCache.PoisonedCacheRecompilesInsteadOfFailing tests exactly
 * this).
 * A file in a retired format fails the magic check and is recompiled
 * in place.
 *
 * Tracing defaults to ON (in-memory memoization only). Set
 * $ELFSIM_TRACE=0 (or 'off') or call setEnabled(false) to force every
 * stream back to lazy per-instruction generation — the reference path
 * the compiled stream is tested against.
 */

#ifndef ELFSIM_WORKLOAD_TRACE_CACHE_HH
#define ELFSIM_WORKLOAD_TRACE_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/stat_fields.hh"
#include "common/types.hh"
#include "workload/compiled_trace.hh"
#include "workload/program.hh"

namespace elfsim {

/** Monotonic counters of trace-compilation activity (additive). */
struct TraceStats
{
    std::uint64_t compiles = 0;    ///< traces built from the generator
    std::uint64_t cacheHits = 0;   ///< memo or on-disk artifact reuse
    std::uint64_t cacheMisses = 0; ///< acquisitions that had to compile
    std::uint64_t bytesMapped = 0; ///< file bytes mapped from disk
    double compileSeconds = 0.0;   ///< wall-clock spent compiling

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("compiles", self.compiles);
        v("cache_hits", self.cacheHits);
        v("cache_misses", self.cacheMisses);
        v("bytes_mapped", self.bytesMapped);
        v("compile_seconds", self.compileSeconds);
    }

    /** Counters accumulated since the @a since snapshot. */
    TraceStats
    delta(const TraceStats &since) const
    {
        return stats::delta(*this, since);
    }
};

/** Process-wide compiled-trace provider (see file comment). */
class TraceCache
{
  public:
    /** The process-wide cache, configured from $ELFSIM_TRACE_CACHE
     *  (directory) and $ELFSIM_TRACE (0/off disables) on first use. */
    static TraceCache &instance();

    /**
     * The compiled trace for the first @a count instructions of
     * @a prog: memoized, loaded from the cache directory, or compiled
     * (and saved back, best-effort) — in that order. Returns null when
     * trace compilation is disabled. Thread-safe; concurrent callers
     * asking for the same content get the same object.
     */
    std::shared_ptr<const CompiledTrace>
    acquire(const Program &prog, InstCount count);

    /** Set (or clear, with "") the on-disk cache directory. */
    void setDirectory(std::string dir);
    std::string directory() const;

    /** Globally enable/disable trace compilation. */
    void setEnabled(bool on);
    bool enabled() const;

    /**
     * Cache-file path @a prog/@a count would use, empty when no
     * directory is configured (tests poison this file to exercise the
     * corrupt-artifact recovery path).
     */
    std::string filePath(const Program &prog, InstCount count) const;

    /** Snapshot of the activity counters. */
    TraceStats stats() const;

    /** Drop memoized traces and zero the counters (tests). Does not
     *  touch the on-disk artifacts. */
    void clearMemory();

  private:
    /** Reads $ELFSIM_TRACE_CACHE / $ELFSIM_TRACE (see instance()). */
    TraceCache();

    std::string pathForKey(const std::string &name,
                           std::uint64_t key) const;

    mutable std::mutex mtx;
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const CompiledTrace>> memo;
    std::string dir;
    bool on = true;
    TraceStats counters;
};

} // namespace elfsim

#endif // ELFSIM_WORKLOAD_TRACE_CACHE_HH
