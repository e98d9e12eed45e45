/**
 * @file
 * Process-wide store of warm-state checkpoint artifacts for sampled
 * simulation.
 *
 * A checkpoint captures the complete warm state of a core (predictors,
 * BTB hierarchy, caches, cumulative counters — see Core::saveWarmState)
 * at one architectural stream position of a sampled run, so a re-run of
 * the same (program content x configuration x sampling schedule) can
 * restore each detailed window's starting state instantly instead of
 * fast-forwarding from the beginning of the stream.
 *
 * Artifacts live beside the compiled-trace cache as content-keyed
 * "elfsim-ckpt-v2" files (--ckpt-cache DIR on the benches,
 * $ELFSIM_CKPT_CACHE, or CheckpointStore::setDirectory) and share its
 * robustness contract: atomic temp-file + rename writes, and key /
 * size / checksum validation on load. Any load defect — stale key,
 * torn write, a flipped byte — demotes the artifact to a transparent
 * fast-forward, never to a failed cell.
 *
 * On-disk format ("elfsim-ckpt-v2", little-endian):
 *
 *   char  magic[16]    "elfsim-ckpt-v2\0\0"
 *   u64   key          content hash (program content + configuration
 *                      fingerprint + sampling schedule + stream
 *                      position + format version)
 *   u64   position     architectural instructions consumed
 *   u64   payloadLen   payload bytes after the header
 *   u64   checksum     Checksum64 of key, position and payloadLen
 *                      (8 little-endian bytes each), then the payload
 *   u8[]  payload      opaque Serializer bytes (Core::saveWarmState
 *                      plus the oracle-generator resume state)
 *
 * The key hashes the magic, so an artifact in a retired format (v1)
 * is never looked up.
 */

#ifndef ELFSIM_WORKLOAD_CHECKPOINT_STORE_HH
#define ELFSIM_WORKLOAD_CHECKPOINT_STORE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/stat_fields.hh"
#include "common/types.hh"
#include "workload/program.hh"

namespace elfsim {

/** Monotonic counters of checkpoint-store activity (additive). */
struct CkptStats
{
    std::uint64_t hits = 0;         ///< artifacts restored
    std::uint64_t misses = 0;       ///< lookups with no usable artifact
    std::uint64_t saves = 0;        ///< artifacts written
    std::uint64_t loadFailures = 0; ///< corrupt/stale artifacts skipped
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("hits", self.hits);
        v("misses", self.misses);
        v("saves", self.saves);
        v("load_failures", self.loadFailures);
        v("bytes_read", self.bytesRead);
        v("bytes_written", self.bytesWritten);
    }

    /** Counters accumulated since the @a since snapshot. */
    CkptStats
    delta(const CkptStats &since) const
    {
        return stats::delta(*this, since);
    }
};

/** Process-wide checkpoint artifact store (see file comment). */
class CheckpointStore
{
  public:
    /** The process-wide store, configured from $ELFSIM_CKPT_CACHE
     *  (directory) and $ELFSIM_CKPT (0/off disables) on first use. */
    static CheckpointStore &instance();

    /**
     * Content hash identifying one checkpointable machine state: the
     * program content, the full configuration fingerprint
     * (configFingerprint), the sampling schedule that shaped all
     * earlier execution, the stream position, and the format version.
     */
    static std::uint64_t key(const Program &prog,
                             std::uint64_t config_fp,
                             InstCount sample_period,
                             InstCount sample_length,
                             InstCount sample_warmup,
                             InstCount position);

    /** @return true iff artifacts can be read/written (enabled and a
     *  directory is configured). */
    bool usable() const;

    /**
     * Try to load the payload for @a key. Returns false — never
     * throws — when the store is unusable, the artifact is absent, or
     * it fails validation (which logs a warning and counts a
     * loadFailure). Thread-safe.
     */
    bool load(const std::string &name, std::uint64_t key,
              InstCount position, std::vector<std::uint8_t> &payload);

    /**
     * Persist @a payload under @a key, best-effort: filesystem
     * failures warn and are otherwise ignored (a read-only or full
     * cache directory must not take the run down). Thread-safe.
     */
    void save(const std::string &name, std::uint64_t key,
              InstCount position,
              const std::vector<std::uint8_t> &payload);

    /** Set (or clear, with "") the artifact directory. */
    void setDirectory(std::string dir);
    std::string directory() const;

    /** Globally enable/disable the store. */
    void setEnabled(bool on);
    bool enabled() const;

    /**
     * Artifact path @a name/@a key would use, empty when no directory
     * is configured (tests poison this file to exercise the corrupt-
     * artifact fallback path).
     */
    std::string filePath(const std::string &name,
                         std::uint64_t key) const;

    /** Snapshot of the activity counters. */
    CkptStats stats() const;

    /** Zero the counters (tests). Does not touch on-disk artifacts. */
    void clearStats();

  private:
    /** Reads $ELFSIM_CKPT_CACHE / $ELFSIM_CKPT (see instance()). */
    CheckpointStore();

    std::string pathForKey(const std::string &name,
                           std::uint64_t key) const;

    mutable std::mutex mtx;
    std::string dir;
    bool on = true;
    CkptStats counters;
};

} // namespace elfsim

#endif // ELFSIM_WORKLOAD_CHECKPOINT_STORE_HH
