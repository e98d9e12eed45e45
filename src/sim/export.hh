/**
 * @file
 * Machine-readable export of simulation results: RunResult (summary +
 * interval timeline) and sweep grids as JSON documents or flat CSV
 * tables. Field enumeration comes from RunResult::forEachField /
 * IntervalSample::forEachField, so exporters never drift from the
 * structs; doubles serialize with shortest-round-trip precision, so a
 * deterministic sweep exports to byte-identical output regardless of
 * thread count.
 *
 * JSON schema (validated by scripts/check_results.py):
 *
 *   {
 *     "schema": "elfsim-results-v2",
 *     "timing": { ... SweepTiming ... },      // optional
 *     "trace":  { ... TraceStats ... },       // optional
 *     "results": [
 *       { "workload": ..., "variant": ..., <summary scalars>,
 *         "error": "", "attempts": N, "status": "ok",
 *         "interval_insts": N,
 *         "timeline": [ { <IntervalSample fields> }, ... ] },
 *       ...
 *     ]
 *   }
 *
 * v1 -> v2: every result gained "status" (ok / failed / timeout /
 * cancelled), "error" (failure detail, empty when ok) and "attempts"
 * (runs of the bounded retry policy, >= 1) — fault-tolerant sweeps
 * degrade gracefully by marking a bad cell instead of aborting, so
 * the schema must distinguish a zeroed failed cell from real data.
 *
 * The optional "trace" block records the sweep's trace-compilation
 * activity (compiles, cache_hits, cache_misses, bytes_mapped,
 * compile_seconds). Like "timing" it is host-dependent bookkeeping,
 * so the deterministic byte-identity guarantee covers documents
 * written without it (writeResultsJson).
 *
 * The resume manifest (elfsim-manifest-v1) is JSONL: one compact
 * object per completed cell, appended and flushed as cells finish so
 * a killed sweep loses at most the in-flight cells:
 *
 *   {"manifest":"elfsim-manifest-v1","index":N,"key":"...",
 *    "status":"ok","result":{ <writeRunResult object> }}
 */

#ifndef ELFSIM_SIM_EXPORT_HH
#define ELFSIM_SIM_EXPORT_HH

#include <iosfwd>
#include <optional>
#include <ostream>
#include <vector>

#include "common/export.hh"
#include "common/json.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "workload/trace_cache.hh"

namespace elfsim {

/** Serialize one result (summary + status + timeline) as a JSON
 *  object. */
void writeRunResult(JsonWriter &w, const RunResult &r);

/** Rebuild a RunResult from a parsed writeRunResult object; throws
 *  ParseError on missing or ill-typed fields. Round trip is
 *  byte-exact: re-serializing the loaded result reproduces the
 *  original text. */
RunResult runResultFromJson(const json::Value &obj);

/**
 * Serialize a whole result set as the elfsim-results-v2 document.
 * @a timing and @a trace may be null; everything else in the document
 * depends only on the simulated results, so two deterministic sweeps
 * of the same grid serialize byte-identically when both are omitted.
 */
void writeSweepJson(std::ostream &os,
                    const std::vector<RunResult> &results,
                    const SweepTiming *timing = nullptr,
                    const TraceStats *trace = nullptr);

/** Results-only convenience: writeSweepJson without timing. */
void writeResultsJson(std::ostream &os,
                      const std::vector<RunResult> &results);

/** Flat CSV: header from forEachField, one row per result. */
void writeResultsCsv(std::ostream &os,
                     const std::vector<RunResult> &results);

/** Timeline CSV: one row per (result, interval sample). */
void writeTimelineCsv(std::ostream &os,
                      const std::vector<RunResult> &results);

/**
 * Serialize a simulator-throughput measurement as an
 * elfsim-throughput-v1 document (validated by
 * scripts/check_results.py --throughput):
 *
 *   {
 *     "schema": "elfsim-throughput-v1",
 *     "timing": { ... SweepTiming ...,
 *                 "host_cpus": C, "host_jobs": J },
 *     "geomean_mips": G,
 *     "throughput": [
 *       { "workload": ..., "variant": ..., "wall_seconds": ...,
 *         "sim_insts": ..., "sim_cycles": ..., "mips": ...,
 *         "cycles_per_host_us": ... }, ...
 *     ]
 *   }
 *
 * Rows from sampled runs (RunResult::sampled) report *effective*
 * throughput: sim_insts is the whole stream covered (fast-forward +
 * detailed windows), sim_cycles the extrapolated total, so mips is
 * effective simulated MIPS — the figure the sampled perf gate reads.
 *
 * The timing block additionally records the host (CPU count and the
 * thread count the run effectively used) — MIPS figures are only
 * comparable with the machine attached. The results-v2 timing block
 * deliberately omits these: its bytes must not depend on the host.
 *
 * @a job_seconds must parallel @a results (SweepRunner::perJobSeconds).
 */
void writeThroughputJson(std::ostream &os,
                         const std::vector<RunResult> &results,
                         const std::vector<double> &job_seconds,
                         const SweepTiming &timing);

// --- crash-safe resume manifest (JSONL) ------------------------------

/** One journaled sweep cell. */
struct ManifestEntry
{
    std::size_t index = 0; ///< submission index in the sweep grid
    std::string key;       ///< job identity (SweepRunner::jobKey)
    RunResult result;
};

/** Append one completed cell as a single compact JSONL line; the
 *  caller flushes (crash safety is per-line). */
void writeManifestLine(std::ostream &os, const ManifestEntry &e);

/**
 * Read every well-formed manifest line from @a is. Malformed or
 * truncated lines (a crash mid-append) are skipped with a warning —
 * their cells simply re-run. When one index appears on several lines
 * (a resumed sweep appends), the last occurrence wins.
 */
std::vector<ManifestEntry> readManifest(std::istream &is);

} // namespace elfsim

#endif // ELFSIM_SIM_EXPORT_HH
