/**
 * @file
 * Sampled-execution tests: the sampled IPC estimate stays within its
 * own reported error bound against a full detailed run across the
 * workload catalog, checkpointed re-runs are byte-identical to cold
 * runs (and actually hit), corrupt checkpoint artifacts (a flipped
 * payload byte, garbage) fall back to fast-forward transparently, a
 * flip of any one artifact byte past the magic fails the load, an
 * artifact that passes every store check but carries a defective
 * payload takes either fallback of runSampled without moving a
 * result, bad schedules are rejected up front, a sampled sweep exports
 * identically at any thread count, and the warm-state checkpoint
 * payload is pinned byte for byte and read only within its bytes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "common/serialize.hh"
#include "sim/config.hh"
#include "sim/export.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "workload/builders.hh"
#include "workload/catalog.hh"
#include "workload/checkpoint_store.hh"

using namespace elfsim;

namespace {

// Sanitizer builds run the simulator several times slower; subsample
// the catalog sweep there so the asan/tsan presets stay practical.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr unsigned kCatalogStride = 5;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr unsigned kCatalogStride = 5;
#else
constexpr unsigned kCatalogStride = 1;
#endif
#else
constexpr unsigned kCatalogStride = 1;
#endif

/** Point the process-wide checkpoint store at a fresh directory for
 *  one scope; restores the previous configuration on exit. */
class ScopedCkptDir
{
  public:
    explicit ScopedCkptDir(const std::string &name)
        : prevDir(CheckpointStore::instance().directory()),
          prevEnabled(CheckpointStore::instance().enabled()),
          dir(testing::TempDir() + name)
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        CheckpointStore &s = CheckpointStore::instance();
        s.setEnabled(true);
        s.setDirectory(dir);
    }
    ~ScopedCkptDir()
    {
        CheckpointStore &s = CheckpointStore::instance();
        s.setDirectory(prevDir);
        s.setEnabled(prevEnabled);
    }

    const std::string &path() const { return dir; }

  private:
    std::string prevDir;
    bool prevEnabled;
    std::string dir;
};

/** Disable the checkpoint store for one scope. */
class ScopedCkptOff
{
  public:
    ScopedCkptOff() : prev(CheckpointStore::instance().enabled())
    {
        CheckpointStore::instance().setEnabled(false);
    }
    ~ScopedCkptOff() { CheckpointStore::instance().setEnabled(prev); }

  private:
    bool prev;
};

std::string
toJson(const RunResult &r)
{
    std::ostringstream os;
    JsonWriter w(os);
    writeRunResult(w, r);
    return os.str();
}

RunOptions
sampledOpts(InstCount total, InstCount period, InstCount length,
            InstCount warmup)
{
    RunOptions o;
    o.warmupInsts = 0;
    o.measureInsts = total;
    o.samplePeriodInsts = period;
    o.sampleLengthInsts = length;
    o.sampleWarmupInsts = warmup;
    return o;
}

} // namespace

TEST(Sampling, RejectsContradictorySchedules)
{
    Program p = microSequentialLoop(30, 16);
    // Measured window larger than the period.
    EXPECT_THROW(
        runVariant(p, FrontendVariant::UElf,
                   sampledOpts(100000, 10000, 10001, 0)),
        ConfigError);
    // Warmup + length overflow the period.
    EXPECT_THROW(
        runVariant(p, FrontendVariant::UElf,
                   sampledOpts(100000, 10000, 8000, 3000)),
        ConfigError);
    // No measured window at all.
    EXPECT_THROW(runVariant(p, FrontendVariant::UElf,
                            sampledOpts(100000, 10000, 0, 1000)),
                 ConfigError);
    // Budget smaller than one period.
    EXPECT_THROW(runVariant(p, FrontendVariant::UElf,
                            sampledOpts(5000, 10000, 2000, 500)),
                 ConfigError);
    // Sample length/warmup without a period.
    EXPECT_THROW(runVariant(p, FrontendVariant::UElf,
                            sampledOpts(100000, 0, 2000, 500)),
                 ConfigError);
}

TEST(Sampling, SampledIpcWithinReportedBoundAcrossCatalog)
{
    ScopedCkptOff off;

    RunOptions full;
    full.warmupInsts = 0;
    full.measureInsts = 150000;
    const RunOptions so = sampledOpts(150000, 5000, 2000, 500);

    // Every (full, sampled) pair runs as one parallel grid. The
    // programs must outlive the sweep, so reserve: no reallocation
    // may move one out from under a job.
    const std::vector<WorkloadSpec> &catalog = workloadCatalog();
    std::vector<Program> programs;
    programs.reserve(catalog.size());
    std::vector<SweepJob> grid;
    for (std::size_t wi = 0; wi < catalog.size(); wi += kCatalogStride) {
        programs.push_back(buildWorkload(catalog[wi]));
        grid.push_back(
            makeVariantJob(programs.back(), FrontendVariant::UElf, full));
        grid.push_back(
            makeVariantJob(programs.back(), FrontendVariant::UElf, so));
    }
    SweepRunner runner;
    const std::vector<RunResult> res = runner.run(grid);

    for (std::size_t i = 0; i < programs.size(); ++i) {
        const WorkloadSpec &w = catalog[i * kCatalogStride];
        const RunResult &f = res[2 * i];
        const RunResult &s = res[2 * i + 1];

        ASSERT_GT(f.ipc, 0.0) << w.name;
        ASSERT_TRUE(s.sampled) << w.name;
        const double err = std::fabs(s.ipc - f.ipc) / f.ipc;
        EXPECT_LE(err, s.sampling.ipcRelErr95)
            << w.name << ": sampled " << s.ipc << " vs full " << f.ipc;

        // Extrapolation-block coherence.
        EXPECT_FALSE(f.sampled) << w.name;
        EXPECT_EQ(s.sampling.windows, 30u) << w.name;
        EXPECT_EQ(s.sampling.totalInsts,
                  s.sampling.windows * s.sampling.periodInsts)
            << w.name;
        EXPECT_EQ(s.sampling.measuredInsts, s.insts) << w.name;
        EXPECT_EQ(s.timeline.size(), s.sampling.windows) << w.name;
        EXPECT_GE(s.sampling.estTotalCycles, double(s.cycles))
            << w.name;
        EXPECT_GT(s.sampling.ipcRelErr95, 0.0) << w.name;
        // One timeline row per measured window, tiling the measured
        // instruction budget exactly.
        InstCount tlInsts = 0;
        for (const IntervalSample &row : s.timeline)
            tlInsts += row.insts;
        EXPECT_EQ(tlInsts, s.insts) << w.name;
        // Checkpoints were off: no store activity reported.
        EXPECT_EQ(s.sampling.ckptHits, 0u) << w.name;
        EXPECT_EQ(s.sampling.ckptSaves, 0u) << w.name;
    }
}

TEST(Sampling, CheckpointedRerunIsByteIdenticalAndSkipsFastForward)
{
    ScopedCkptDir dir("elfsim_sampling_rt");
    Program p = buildWorkload(workloadCatalog().front());
    const RunOptions so = sampledOpts(150000, 15000, 2500, 500);

    const CkptStats before = CheckpointStore::instance().stats();
    const RunResult cold = runVariant(p, FrontendVariant::UElf, so);
    EXPECT_GT(cold.sampling.ckptSaves, 0u);
    EXPECT_EQ(cold.sampling.ckptHits, 0u);

    const RunResult warm = runVariant(p, FrontendVariant::UElf, so);
    EXPECT_EQ(warm.sampling.ckptHits, cold.sampling.ckptSaves);
    EXPECT_EQ(warm.sampling.ckptMisses, 0u);
    EXPECT_EQ(warm.sampling.ckptSaves, 0u);

    const CkptStats d =
        CheckpointStore::instance().stats().delta(before);
    EXPECT_EQ(d.hits, warm.sampling.ckptHits);
    EXPECT_EQ(d.saves, cold.sampling.ckptSaves);
    EXPECT_GT(d.bytesWritten, 0u);
    EXPECT_GT(d.bytesRead, 0u);
    EXPECT_EQ(d.loadFailures, 0u);

    // The warm run must reproduce the cold run bit-exactly —
    // everything but the checkpoint traffic counters and the
    // functional-warming work split (a checkpointed rerun skips the
    // fast-forward entirely, so its warm.* counters are zero).
    RunResult a = cold, b = warm;
    a.sampling.ckptHits = b.sampling.ckptHits = 0;
    a.sampling.ckptMisses = b.sampling.ckptMisses = 0;
    a.sampling.ckptSaves = b.sampling.ckptSaves = 0;
    EXPECT_EQ(warm.sampling.warmFfInsts, 0u);
    a.sampling.warmKernelInsts = b.sampling.warmKernelInsts = 0;
    a.sampling.warmScalarInsts = b.sampling.warmScalarInsts = 0;
    a.sampling.warmBranchEvents = b.sampling.warmBranchEvents = 0;
    a.sampling.warmLinesTouched = b.sampling.warmLinesTouched = 0;
    a.sampling.warmFfInsts = b.sampling.warmFfInsts = 0;
    EXPECT_EQ(toJson(a), toJson(b));
}

TEST(Sampling, CorruptCheckpointsFallBackToFastForward)
{
    ScopedCkptDir dir("elfsim_sampling_corrupt");
    Program p = microRandomBranchLoop(8, 0.4);
    const RunOptions so = sampledOpts(100000, 10000, 2500, 500);

    const RunResult cold = runVariant(p, FrontendVariant::UElf, so);
    ASSERT_GT(cold.sampling.ckptSaves, 0u);

    // (a) One flipped payload byte in every artifact on disk. Each
    // load fails its checksum, the run fast-forwards instead, and the
    // result is unchanged.
    {
        unsigned flipped = 0;
        for (const auto &e :
             std::filesystem::recursive_directory_iterator(dir.path()))
            if (e.is_regular_file()) {
                // The middle of the file: past the 48-byte header.
                const std::streamoff at =
                    std::streamoff(e.file_size() / 2);
                std::fstream f(e.path(), std::ios::binary |
                                             std::ios::in |
                                             std::ios::out);
                f.seekg(at);
                const char c = char(f.get());
                f.seekp(at);
                f.put(char(c ^ 0x5a));
                ++flipped;
            }
        ASSERT_GT(flipped, 0u);

        const CkptStats before = CheckpointStore::instance().stats();
        const RunResult got = runVariant(p, FrontendVariant::UElf, so);
        const CkptStats d =
            CheckpointStore::instance().stats().delta(before);
        EXPECT_GT(d.loadFailures, 0u);
        EXPECT_EQ(d.hits, 0u);
        EXPECT_EQ(toJson(got), toJson(cold));
    }

    // (b) On-disk truncation/garbage: overwrite every artifact in the
    // store directory, then re-run. Same transparent fallback, and
    // the re-run repopulates the artifacts.
    {
        unsigned clobbered = 0;
        for (const auto &e :
             std::filesystem::recursive_directory_iterator(dir.path()))
            if (e.is_regular_file()) {
                std::ofstream os(e.path(), std::ios::trunc);
                os << "not a checkpoint";
                ++clobbered;
            }
        ASSERT_GT(clobbered, 0u);

        const CkptStats before = CheckpointStore::instance().stats();
        const RunResult got = runVariant(p, FrontendVariant::UElf, so);
        const CkptStats d =
            CheckpointStore::instance().stats().delta(before);
        EXPECT_GT(d.loadFailures, 0u);
        EXPECT_EQ(d.hits, 0u);
        EXPECT_EQ(d.saves, cold.sampling.ckptSaves);
        EXPECT_EQ(toJson(got), toJson(cold));

        // And the repopulated artifacts hit again. Counters differ
        // (got re-saved, warm hit), so compare with them zeroed.
        RunResult warm = runVariant(p, FrontendVariant::UElf, so);
        EXPECT_EQ(warm.sampling.ckptHits, cold.sampling.ckptSaves);
        RunResult g = got;
        g.sampling.ckptHits = warm.sampling.ckptHits = 0;
        g.sampling.ckptMisses = warm.sampling.ckptMisses = 0;
        g.sampling.ckptSaves = warm.sampling.ckptSaves = 0;
        g.sampling.warmKernelInsts = warm.sampling.warmKernelInsts = 0;
        g.sampling.warmScalarInsts = warm.sampling.warmScalarInsts = 0;
        g.sampling.warmBranchEvents = warm.sampling.warmBranchEvents =
            0;
        g.sampling.warmLinesTouched = warm.sampling.warmLinesTouched =
            0;
        g.sampling.warmFfInsts = warm.sampling.warmFfInsts = 0;
        EXPECT_EQ(toJson(g), toJson(warm));
    }
}

namespace {

/** One checkpoint artifact as the store holds it. */
struct Artifact
{
    std::uint64_t key = 0;
    InstCount position = 0;
    std::vector<std::uint8_t> payload;
};

/** Every artifact under @a dir, header fields and payload (see the
 *  format in workload/checkpoint_store.hh). */
std::vector<Artifact>
readArtifacts(const std::string &dir)
{
    std::vector<Artifact> out;
    for (const auto &e :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (!e.is_regular_file())
            continue;
        std::ifstream in(e.path(), std::ios::binary);
        const std::vector<std::uint8_t> file(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        Deserializer d(file.data() + 16, file.size() - 16); // magic
        Artifact a;
        a.key = d.u64();
        a.position = d.u64();
        const std::uint64_t len = d.u64();
        d.u64(); // checksum
        EXPECT_EQ(d.remaining(), len) << e.path();
        a.payload.assign(file.end() - std::ptrdiff_t(len), file.end());
        out.push_back(std::move(a));
    }
    return out;
}

/** Occurrences of @a what in @a log. */
unsigned
occurrences(const std::string &log, const std::string &what)
{
    unsigned n = 0;
    for (std::size_t at = log.find(what); at != std::string::npos;
         at = log.find(what, at + 1))
        ++n;
    return n;
}

} // namespace

// The two payload fallbacks of runSampled, on artifacts that pass the
// store's magic, key, size and checksum checks (each is rewritten
// through CheckpointStore::save) but carry a defective payload:
// (a) a resume-state byte that is no boolean is rejected before the
// core is touched, so every such window fast-forwards; (b) a payload
// one byte short or one byte long fails inside Core::loadWarmState,
// so the run restarts once without checkpoints. Either way the rows
// equal the cold run's apart from the checkpoint counters.
TEST(Sampling, DefectivePayloadsTakeEitherFallbackWithoutMovingResults)
{
    ScopedCkptDir dir("elfsim_sampling_payload");
    CheckpointStore &store = CheckpointStore::instance();
    Program p = microRandomBranchLoop(8, 0.4);
    const RunOptions so = sampledOpts(100000, 10000, 2500, 500);

    const RunResult cold = runVariant(p, FrontendVariant::UElf, so);
    const std::vector<Artifact> good = readArtifacts(dir.path());
    ASSERT_GT(good.size(), 0u);
    ASSERT_EQ(good.size(), cold.sampling.ckptSaves);

    const auto rowsBeyondCkpt = [](RunResult r) {
        r.sampling.ckptHits = 0;
        r.sampling.ckptMisses = 0;
        r.sampling.ckptSaves = 0;
        return toJson(r);
    };
    const std::string unusable = "checkpoint payload unusable";
    const std::string restart = "restarting run without checkpoints";
    const struct
    {
        const char *name;
        void (*edit)(std::vector<std::uint8_t> &);
        bool coreTouched;
    } variants[] = {
        {"(a) resume-state byte 2",
         [](std::vector<std::uint8_t> &b) { b[0] = 2; }, false},
        {"(b1) last byte dropped",
         [](std::vector<std::uint8_t> &b) { b.pop_back(); }, true},
        {"(b2) one byte appended",
         [](std::vector<std::uint8_t> &b) { b.push_back(0); }, true},
    };
    for (const auto &v : variants) {
        for (const Artifact &a : good) {
            std::vector<std::uint8_t> bad = a.payload;
            v.edit(bad);
            store.save(p.name(), a.key, a.position, bad);
        }
        testing::internal::CaptureStderr();
        const RunResult got = runVariant(p, FrontendVariant::UElf, so);
        const std::string log = testing::internal::GetCapturedStderr();

        EXPECT_EQ(got.sampling.ckptHits, 0u) << v.name;
        EXPECT_EQ(rowsBeyondCkpt(got), rowsBeyondCkpt(cold)) << v.name;
        if (v.coreTouched) {
            EXPECT_EQ(occurrences(log, restart), 1u) << v.name;
            EXPECT_EQ(occurrences(log, unusable), 0u) << v.name;
        } else {
            EXPECT_EQ(occurrences(log, restart), 0u) << v.name;
            EXPECT_EQ(occurrences(log, unusable), good.size()) << v.name;
        }
    }
}

// The payload checksum streams over a partial tail word: one flipped
// byte anywhere past the magic — key, position, length, checksum or
// payload — must fail the load and count exactly one load failure.
TEST(CheckpointStore, LoadRejectsEveryFlippedByte)
{
    ScopedCkptDir dir("elfsim_ckpt_flip");
    CheckpointStore &store = CheckpointStore::instance();
    std::vector<std::uint8_t> payload(1003);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = std::uint8_t(i * 131 + 7);
    const std::uint64_t key = 0x0123456789abcdefull;
    const InstCount position = 40000;
    store.save("flip", key, position, payload);
    const std::string path = store.filePath("flip", key);
    std::string good;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        good = os.str();
    }
    ASSERT_GT(good.size(), payload.size());

    // Patch one byte in place, load, and put the byte back. Every
    // failed load warns; keep the 1k warnings out of the test log.
    std::fstream file(path, std::ios::binary | std::ios::in |
                                std::ios::out);
    const auto poke = [&file](std::size_t at, char c) {
        file.seekp(std::streamoff(at));
        file.put(c);
        file.flush();
    };
    std::vector<std::uint8_t> got;
    testing::internal::CaptureStderr();
    for (std::size_t i = 16; i < good.size(); ++i) {
        poke(i, char(good[i] ^ (1 << (i & 7))));
        const CkptStats before = store.stats();
        EXPECT_FALSE(store.load("flip", key, position, got))
            << "byte " << i << " of " << good.size();
        EXPECT_EQ(store.stats().delta(before).loadFailures, 1u)
            << "byte " << i << " of " << good.size();
        poke(i, good[i]);
    }
    testing::internal::GetCapturedStderr();
    ASSERT_TRUE(file.good());
    file.close();

    const CkptStats before = store.stats();
    ASSERT_TRUE(store.load("flip", key, position, got));
    EXPECT_EQ(store.stats().delta(before).hits, 1u);
    EXPECT_EQ(got, payload);
}

TEST(Sampling, SweepExportIsByteIdenticalAcrossJobCounts)
{
    Program a = microSequentialLoop(30, 16);
    Program b = microRandomBranchLoop(8, 0.4);
    const RunOptions so = sampledOpts(100000, 10000, 2500, 500);
    const std::vector<SweepJob> grid = {
        makeVariantJob(a, FrontendVariant::UElf, so),
        makeVariantJob(a, FrontendVariant::Dcf, so),
        makeVariantJob(b, FrontendVariant::UElf, so),
        makeVariantJob(b, FrontendVariant::Dcf, so),
    };

    // Separate cold stores per run: checkpoint traffic counters are
    // part of the export, so both sweeps must start equally cold.
    std::string one, four;
    {
        ScopedCkptDir dir("elfsim_sampling_jobs1");
        SweepRunner runner(1);
        const std::vector<RunResult> res = runner.run(grid);
        EXPECT_EQ(runner.failedCells(), 0u);
        std::ostringstream os;
        writeResultsJson(os, res);
        one = os.str();
    }
    {
        ScopedCkptDir dir("elfsim_sampling_jobs4");
        SweepRunner runner(4);
        const std::vector<RunResult> res = runner.run(grid);
        EXPECT_EQ(runner.failedCells(), 0u);
        std::ostringstream os;
        writeResultsJson(os, res);
        four = os.str();
    }
    EXPECT_EQ(one, four);
}

TEST(Sampling, SampledSweepReportsCkptStats)
{
    ScopedCkptDir dir("elfsim_sampling_sweepstats");
    Program a = microSequentialLoop(30, 16);
    const std::vector<SweepJob> grid = {
        makeVariantJob(a, FrontendVariant::UElf,
                       sampledOpts(100000, 10000, 2500, 500)),
        makeVariantJob(a, FrontendVariant::Dcf,
                       sampledOpts(100000, 10000, 2500, 500)),
    };
    // The runner's warm summary is the sum of its rows' sampling
    // blocks, field for field.
    const auto warmIsRowSum = [](const SweepRunner &r) {
        WarmStats sum;
        for (const RunResult &row : r.results())
            sum.add({row.sampling.warmKernelInsts,
                     row.sampling.warmScalarInsts,
                     row.sampling.warmBranchEvents,
                     row.sampling.warmLinesTouched});
        const WarmStats &w = r.warmStats();
        EXPECT_EQ(w.kernelInsts, sum.kernelInsts);
        EXPECT_EQ(w.scalarInsts, sum.scalarInsts);
        EXPECT_EQ(w.branchEvents, sum.branchEvents);
        EXPECT_EQ(w.linesTouched, sum.linesTouched);
        return sum.kernelInsts + sum.scalarInsts;
    };
    SweepRunner runner(2);
    runner.run(grid);
    EXPECT_GT(runner.ckptStats().saves, 0u);
    EXPECT_EQ(runner.ckptStats().hits, 0u);
    EXPECT_GT(warmIsRowSum(runner), 0u);

    SweepRunner again(2);
    again.run(grid);
    EXPECT_GT(again.ckptStats().hits, 0u);
    EXPECT_EQ(again.ckptStats().saves, 0u);
    // Every window restored from a checkpoint: nothing was warmed.
    EXPECT_EQ(warmIsRowSum(again), 0u);
}

namespace {

/** One pinned warm-state payload: workload x variant -> digest. */
struct WarmStatePin
{
    const char *workload;
    FrontendVariant variant;
    std::size_t bytes;
    std::uint64_t digest;
};

/** A core after a detailed run, a quiesce and a fast-forward: every
 *  counter and warm structure the payload carries has moved by then. */
std::unique_ptr<Core>
warmedCore(const Program &p, FrontendVariant v)
{
    auto core = std::make_unique<Core>(makeConfig(v), p);
    core->run(20000);
    core->squashToCommitted();
    core->fastForward(30000);
    return core;
}

std::vector<std::uint8_t>
warmStateBytes(const Core &core)
{
    Serializer s;
    core.saveWarmState(s);
    return s.data();
}

} // namespace

// Checkpoint payloads are compared byte for byte across refactors of
// the counter plumbing: a moved, dropped or added field changes the
// digest. A mismatch prints the table line to paste — re-pin only
// for an intentional layout change, which must also change every
// checkpoint key (a format version bump, or a configFingerprint
// change when the layout follows the config).
TEST(Sampling, WarmStatePayloadBytesArePinned)
{
    constexpr FrontendVariant Dcf = FrontendVariant::Dcf;
    constexpr FrontendVariant UElf = FrontendVariant::UElf;
    const WarmStatePin pins[] = {
        {"641.leela", Dcf, 3748531, 0xcbb5fe17c85cb30full},
        {"641.leela", UElf, 3748531, 0xf93fe22e8b04773bull},
        {"605.mcf", Dcf, 3748507, 0x7ebefb5ab7e9afdaull},
        {"605.mcf", UElf, 3748507, 0x5bab7e7a48e5b752ull},
        {"srv1.subtest_1", Dcf, 3751971, 0xfc4d15dbdbef03daull},
        {"srv1.subtest_1", UElf, 3751971, 0x7f618286a640f97cull},
    };
    for (const WarmStatePin &pin : pins) {
        const Program p = buildWorkload(*findWorkload(pin.workload));
        const std::unique_ptr<Core> core = warmedCore(p, pin.variant);
        const std::vector<std::uint8_t> bytes = warmStateBytes(*core);
        const std::uint64_t digest = fnv1a(bytes.data(), bytes.size());
        EXPECT_EQ(bytes.size(), pin.bytes) << pin.workload;
        EXPECT_EQ(digest, pin.digest)
            << "pin line: {\"" << pin.workload << "\", "
            << (pin.variant == Dcf ? "Dcf" : "UElf")
            << ", " << bytes.size() << ", 0x" << std::hex << digest
            << "ull},";

        // A fresh core restored from the payload saves the same bytes,
        // so the load order matches the save order field for field.
        Core fresh(makeConfig(pin.variant), p);
        Deserializer d(bytes);
        fresh.loadWarmState(d, core->consumedInsts(),
                            core->ffResumeStateValid()
                                ? &core->ffResumeState()
                                : nullptr);
        EXPECT_EQ(warmStateBytes(fresh), bytes) << pin.workload;
    }
}

// Core::loadWarmState reads only bytes that exist: a strict prefix of
// a payload is a ParseError, never a read past the buffer (the asan
// preset runs this suite).
TEST(Sampling, EveryStrictPrefixOfAWarmStatePayloadIsAParseError)
{
    const Program p = buildWorkload(*findWorkload("605.mcf"));
    const std::unique_ptr<Core> core =
        warmedCore(p, FrontendVariant::Dcf);
    const std::vector<std::uint8_t> bytes = warmStateBytes(*core);
    // A failed load leaves no instruction in flight, so one core
    // takes every prefix.
    Core fresh(makeConfig(FrontendVariant::Dcf), p);
    const OracleGen *gen =
        core->ffResumeStateValid() ? &core->ffResumeState() : nullptr;
    for (std::size_t i = 0; i < 256; ++i) {
        const std::size_t len = bytes.size() * i / 256;
        Deserializer d(bytes.data(), len);
        EXPECT_THROW(fresh.loadWarmState(d, core->consumedInsts(), gen),
                     ParseError)
            << len << " of " << bytes.size() << " bytes";
    }
}
