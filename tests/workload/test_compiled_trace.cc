/**
 * @file
 * Compiled-trace correctness: per-instruction identity with the lazy
 * generator over every catalog workload (including the lazy tail past
 * the compiled prefix), on-disk round-trip byte identity, rejection of
 * stale/truncated/corrupt artifacts, TraceCache memoization and
 * disk-persistence semantics, and thread-safety of concurrent
 * acquisition (the asan/tsan presets run this binary).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "sim/sweep.hh"
#include "workload/builders.hh"
#include "workload/catalog.hh"
#include "workload/compiled_trace.hh"
#include "workload/oracle_stream.hh"
#include "workload/trace_cache.hh"

#include <sys/resource.h>

using namespace elfsim;

namespace {

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * Point the process-wide cache at a scratch state for one test. The
 * directory is wiped on entry so every test starts cold even when a
 * previous run left artifacts behind.
 */
class ScopedCacheDir
{
  public:
    explicit ScopedCacheDir(std::string dir)
        : prevDir(TraceCache::instance().directory()),
          prevOn(TraceCache::instance().enabled())
    {
        if (!dir.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
        TraceCache::instance().setDirectory(std::move(dir));
        TraceCache::instance().setEnabled(true);
        TraceCache::instance().clearMemory();
    }
    ~ScopedCacheDir()
    {
        TraceCache::instance().setDirectory(prevDir);
        TraceCache::instance().setEnabled(prevOn);
        TraceCache::instance().clearMemory();
    }

  private:
    std::string prevDir;
    bool prevOn;
};

void
expectSameInst(const OracleInst &a, const OracleInst &b, std::size_t i,
               const std::string &ctx)
{
    ASSERT_EQ(a.si, b.si) << ctx << " inst " << i;
    ASSERT_EQ(a.taken, b.taken) << ctx << " inst " << i;
    ASSERT_EQ(a.nextPC, b.nextPC) << ctx << " inst " << i;
    ASSERT_EQ(a.memAddr, b.memAddr) << ctx << " inst " << i;
}

} // namespace

// The core guarantee: for every catalog workload, a trace-backed
// stream is indistinguishable from the lazy reference stream at every
// index — inside the compiled prefix AND beyond it (the lazy tail
// resumed from the trace's saved end state).
TEST(CompiledTrace, MatchesLazyStreamForEveryCatalogWorkload)
{
    constexpr InstCount compiled = 6000;
    constexpr InstCount checked = 7500; // runs 1500 past the prefix
    for (const WorkloadSpec &spec : workloadCatalog()) {
        const Program prog = buildWorkload(spec);
        const auto trace = CompiledTrace::compile(prog, compiled);
        ASSERT_EQ(trace->size(), compiled);

        OracleStream lazy(prog);
        OracleStream backed(prog, defaultOracleWindowCap, trace);
        EXPECT_EQ(backed.backingTrace(), trace.get());
        for (std::size_t i = 1; i <= checked; ++i) {
            expectSameInst(backed.at(i), lazy.at(i), i, spec.name);
            // Retire as a real run would, so the window never grows
            // past its cap.
            if (i % 512 == 0) {
                lazy.retireUpTo(i - 256);
                backed.retireUpTo(i - 256);
            }
        }
    }
}

// Replay semantics survive the compiled backing store: a flush replays
// already-generated instructions from the window, not the trace.
TEST(CompiledTrace, ReplayWindowSemanticsAreKept)
{
    const Program prog = microRandomBranchLoop(8, 0.4);
    const auto trace = CompiledTrace::compile(prog, 2000);
    OracleStream s(prog, defaultOracleWindowCap, trace);

    const OracleInst first = s.at(100);
    s.at(600); // generate well ahead
    const OracleInst again = s.at(100); // replay without regeneration
    expectSameInst(first, again, 100, "replay");
    s.retireUpTo(50);
    EXPECT_EQ(s.oldest(), 51u);
}

TEST(CompiledTrace, KeyIsContentNotName)
{
    // Two content-identical builds share a key regardless of Program
    // instance; a different instruction budget changes it.
    const Program a = microSequentialLoop(30, 16);
    const Program b = microSequentialLoop(30, 16);
    const Program c = microSequentialLoop(31, 16);
    EXPECT_EQ(CompiledTrace::key(a, 1000), CompiledTrace::key(b, 1000));
    EXPECT_NE(CompiledTrace::key(a, 1000), CompiledTrace::key(a, 1001));
    EXPECT_NE(CompiledTrace::key(a, 1000), CompiledTrace::key(c, 1000));
}

TEST(CompiledTrace, SaveLoadRoundTripIsByteIdentical)
{
    const Program prog = microBtbMissChain(512, 6);
    const auto trace = CompiledTrace::compile(prog, 5000);
    const std::string p1 = tempPath("trace_rt1.etrace");
    const std::string p2 = tempPath("trace_rt2.etrace");
    trace->save(p1);

    const auto loaded = CompiledTrace::load(p1, trace->cacheKey());
    ASSERT_EQ(loaded->size(), trace->size());
    EXPECT_EQ(loaded->cacheKey(), trace->cacheKey());
    for (InstCount i = 0; i < trace->size(); ++i) {
        ASSERT_EQ(loaded->siIndex(i), trace->siIndex(i)) << i;
        ASSERT_EQ(loaded->taken(i), trace->taken(i)) << i;
        ASSERT_EQ(loaded->nextPC(i), trace->nextPC(i)) << i;
        ASSERT_EQ(loaded->memAddr(i), trace->memAddr(i)) << i;
    }
    // End state survives too: the lazy tails must be identical.
    EXPECT_EQ(loaded->endState().pc, trace->endState().pc);
    EXPECT_EQ(loaded->endState().callStack, trace->endState().callStack);
    EXPECT_EQ(loaded->endState().condCount, trace->endState().condCount);
    EXPECT_EQ(loaded->endState().indCount, trace->endState().indCount);
    EXPECT_EQ(loaded->endState().memCount, trace->endState().memCount);

    // Re-saving the loaded trace reproduces the file byte for byte.
    loaded->save(p2);
    EXPECT_EQ(slurp(p1), slurp(p2));
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST(CompiledTrace, LoadRejectsBadMagicStaleKeyAndTruncation)
{
    const Program prog = microSequentialLoop(30, 16);
    const auto trace = CompiledTrace::compile(prog, 1000);
    const std::string path = tempPath("trace_bad.etrace");
    trace->save(path);
    const std::string good = slurp(path);
    const std::uint64_t key = trace->cacheKey();

    // Unreadable file -> IoError.
    EXPECT_THROW(CompiledTrace::load(tempPath("nope.etrace"), key),
                 IoError);

    // Stale key (same file, different expectation) -> ParseError.
    EXPECT_THROW(CompiledTrace::load(path, key ^ 1), ParseError);

    const auto rewrite = [&](const std::string &bytes) {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), std::streamsize(bytes.size()));
    };

    // Bad magic.
    std::string bad = good;
    bad[0] = 'X';
    rewrite(bad);
    EXPECT_THROW(CompiledTrace::load(path, key), ParseError);

    // Truncation: shorter than the header, and shorter than the size
    // the header promises.
    rewrite(good.substr(0, 40));
    EXPECT_THROW(CompiledTrace::load(path, key), ParseError);
    rewrite(good.substr(0, good.size() - 8));
    EXPECT_THROW(CompiledTrace::load(path, key), ParseError);

    // Flipped payload byte -> checksum mismatch.
    bad = good;
    bad[bad.size() - 3] ^= 0x40;
    rewrite(bad);
    EXPECT_THROW(CompiledTrace::load(path, key), ParseError);

    // The pristine bytes still load (the guards above are not
    // over-eager).
    rewrite(good);
    EXPECT_NO_THROW(CompiledTrace::load(path, key));
    std::remove(path.c_str());
}

// The checksum streams across section boundaries and a partial tail
// word, so one flipped byte anywhere past the magic — header scalar,
// checksum field, any section, the last byte — must be rejected.
TEST(CompiledTrace, LoadRejectsEveryFlippedByte)
{
    const Program prog = microRandomBranchLoop(8, 0.4);
    const auto trace = CompiledTrace::compile(prog, 300);
    const std::string path = tempPath("trace_flip.etrace");
    trace->save(path);
    const std::string good = slurp(path);
    const std::uint64_t key = trace->cacheKey();
    // The checksummed stream (80 header bytes, then the sections) has
    // the same length mod 8 as the file: it ends in a partial word,
    // so it also ends off a 32-byte stripe.
    ASSERT_NE(good.size() % 8, 0u);

    // Patch one byte in place, load, and put the byte back.
    std::fstream file(path, std::ios::binary | std::ios::in |
                                std::ios::out);
    const auto poke = [&file](std::size_t at, char c) {
        file.seekp(std::streamoff(at));
        file.put(c);
        file.flush();
    };
    for (std::size_t i = 16; i < good.size(); ++i) {
        poke(i, char(good[i] ^ (1 << (i & 7))));
        EXPECT_THROW(CompiledTrace::load(path, key), ParseError)
            << "byte " << i << " of " << good.size();
        poke(i, good[i]);
    }
    ASSERT_TRUE(file.good());
    file.close();
    EXPECT_EQ(slurp(path), good);
    EXPECT_NO_THROW(CompiledTrace::load(path, key));
    std::remove(path.c_str());
}

// A write that fails part-way (here: the file-size limit) throws
// IoError and leaves nothing behind, not even the temp file.
TEST(CompiledTrace, FailedSaveRemovesItsTempFile)
{
    const Program prog = microRandomBranchLoop(8, 0.4);
    const auto trace = CompiledTrace::compile(prog, 20000);
    const std::string dir = tempPath("elfsim_trace_fsize");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    // Lower the soft file-size limit and ignore SIGXFSZ, so the write
    // past 4 KiB fails with EFBIG instead of killing the process.
    struct rlimit prevLimit;
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &prevLimit), 0);
    struct rlimit small = prevLimit;
    small.rlim_cur = 4096;
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &small), 0);
    void (*prevHandler)(int) = std::signal(SIGXFSZ, SIG_IGN);
    bool threw = false;
    try {
        trace->save(dir + "/t.etrace");
    } catch (const IoError &) {
        threw = true;
    }
    ::setrlimit(RLIMIT_FSIZE, &prevLimit);
    std::signal(SIGXFSZ, prevHandler);

    EXPECT_TRUE(threw);
    std::vector<std::string> left;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        left.push_back(e.path().filename().string());
    EXPECT_EQ(left, std::vector<std::string>());
    std::filesystem::remove_all(dir);
}

// The v2 warming side tables are a pure re-indexing of the per-inst
// arrays: re-derive all three from siIndex/taken/nextPC/memAddr and
// the static image, and require the stored tables — and the binary
// searches over them — to agree exactly, for every catalog workload
// and after a disk round trip.
TEST(CompiledTrace, SideTablesMatchPerInstArraysAcrossCatalog)
{
    for (const WorkloadSpec &w : workloadCatalog()) {
        const Program prog = buildWorkload(w);
        const auto compiled = CompiledTrace::compile(prog, 5000);
        const std::string path = tempPath("trace_side.etrace");
        compiled->save(path);
        const auto loaded =
            CompiledTrace::load(path, compiled->cacheKey());
        std::remove(path.c_str());

        const StaticInst *image = prog.instructions().data();
        for (const auto &t : {compiled, loaded}) {
            InstCount b = 0, r = 0, m = 0;
            bool newRun = true;
            for (InstCount i = 0; i < t->size(); ++i) {
                const StaticInst &si = image[t->siIndex(i)];
                if (newRun) {
                    ASSERT_LT(r, t->numRuns()) << w.name;
                    ASSERT_EQ(t->runPos(r), i) << w.name;
                    ASSERT_EQ(t->runPC(r), si.pc) << w.name;
                    ASSERT_EQ(t->runContaining(i), r) << w.name;
                    ++r;
                }
                ASSERT_EQ(t->runContaining(i), r - 1) << w.name;
                if (si.branch != BranchKind::None) {
                    ASSERT_LT(b, t->numBranchEvents()) << w.name;
                    ASSERT_EQ(t->firstBranchAtOrAfter(i), b) << w.name;
                    ASSERT_EQ(t->branchPos(b), i) << w.name;
                    ASSERT_EQ(t->branchPC(b), si.pc) << w.name;
                    ASSERT_EQ(t->branchTarget(b), t->nextPC(i))
                        << w.name;
                    ASSERT_EQ(t->branchKind(b), si.branch) << w.name;
                    ASSERT_EQ(t->branchTaken(b), t->taken(i)) << w.name;
                    ++b;
                }
                if (si.isMemInst()) {
                    ASSERT_LT(m, t->numMemEvents()) << w.name;
                    ASSERT_EQ(t->firstMemAtOrAfter(i), m) << w.name;
                    ASSERT_EQ(t->memPos(m), i) << w.name;
                    ASSERT_EQ(t->memPC(m), si.pc) << w.name;
                    ASSERT_EQ(t->memEvAddr(m), t->memAddr(i)) << w.name;
                    ASSERT_EQ(t->memIsStore(m), si.isStore()) << w.name;
                    ++m;
                }
                newRun = t->taken(i);
            }
            EXPECT_EQ(b, t->numBranchEvents()) << w.name;
            EXPECT_EQ(r, t->numRuns()) << w.name;
            EXPECT_EQ(m, t->numMemEvents()) << w.name;
        }
    }
}

// An artifact in the retired v2 format (byte-wise FNV-1a checksum)
// must demote to a transparent recompile — never a failed acquisition
// — and the recompile overwrites the stale file with a loadable v3
// image.
TEST(TraceCache, RetiredV2ArtifactTransparentlyRecompiles)
{
    ScopedCacheDir scope(testing::TempDir() + "elfsim_trace_v2fb");
    TraceCache &cache = TraceCache::instance();
    const Program prog = microBtbMissChain(512, 6);

    const auto first = cache.acquire(prog, 3000);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(cache.stats().compiles, 1u);
    const std::string path = cache.filePath(prog, 3000);
    ASSERT_FALSE(path.empty());

    // Stamp the artifact with the retired v2 magic. Nothing else in
    // the file changes — magic rejection alone must trigger the
    // fallback.
    const std::string v3Magic("elfsim-trace-v3", 16); // with its NUL
    std::string bytes = slurp(path);
    ASSERT_EQ(bytes.substr(0, 16), v3Magic);
    bytes[14] = '2';
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), std::streamsize(bytes.size()));
    }

    cache.clearMemory();  // also zeroes the stats counters
    const auto second = cache.acquire(prog, 3000);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(cache.stats().compiles, 1u);
    EXPECT_EQ(cache.stats().cacheHits, 0u);
    EXPECT_EQ(second->cacheKey(), first->cacheKey());
    EXPECT_EQ(second->size(), first->size());

    // The refreshed artifact is v3 again and loads cleanly.
    EXPECT_EQ(slurp(path).substr(0, 16), v3Magic);
    EXPECT_NO_THROW(CompiledTrace::load(path, first->cacheKey()));
}

TEST(TraceCache, MemoizesAndSharesOneTracePerContent)
{
    ScopedCacheDir scoped(""); // memory-only
    TraceCache &cache = TraceCache::instance();

    const Program a = microRandomBranchLoop(8, 0.4);
    const Program b = microRandomBranchLoop(8, 0.4); // same content
    const auto t1 = cache.acquire(a, 3000);
    const auto t2 = cache.acquire(b, 3000);
    const auto t3 = cache.acquire(a, 4000);
    ASSERT_NE(t1, nullptr);
    EXPECT_EQ(t1.get(), t2.get()); // shared by content
    EXPECT_NE(t1.get(), t3.get()); // different budget

    const TraceStats s = cache.stats();
    EXPECT_EQ(s.compiles, 2u);
    EXPECT_EQ(s.cacheMisses, 2u);
    EXPECT_EQ(s.cacheHits, 1u);
    EXPECT_GE(s.compileSeconds, 0.0);
}

TEST(TraceCache, DisabledCacheYieldsLazyStreams)
{
    ScopedCacheDir scoped("");
    TraceCache::instance().setEnabled(false);
    const Program a = microRandomBranchLoop(8, 0.4);
    EXPECT_EQ(TraceCache::instance().acquire(a, 3000), nullptr);
    EXPECT_EQ(TraceCache::instance().stats().compiles, 0u);
}

TEST(TraceCache, PersistsAndReloadsArtifacts)
{
    const std::string dir = tempPath("elfsim_trace_cache");
    ScopedCacheDir scoped(dir);
    TraceCache &cache = TraceCache::instance();

    const Program a = microSequentialLoop(30, 16);
    const auto compiled = cache.acquire(a, 2500);
    ASSERT_NE(compiled, nullptr);
    const std::string path = cache.filePath(a, 2500);
    ASSERT_FALSE(path.empty());
    EXPECT_TRUE(std::ifstream(path).good()) << path;

    // A fresh memo (new process, morally) loads the artifact instead
    // of compiling, and the loaded stream is the compiled stream.
    cache.clearMemory();
    const auto loaded = cache.acquire(a, 2500);
    ASSERT_NE(loaded, nullptr);
    EXPECT_NE(loaded.get(), compiled.get());
    const TraceStats s = cache.stats();
    EXPECT_EQ(s.compiles, 0u);
    EXPECT_EQ(s.cacheHits, 1u);
    EXPECT_GT(s.bytesMapped, 0u);
    ASSERT_EQ(loaded->size(), compiled->size());
    for (InstCount i = 0; i < loaded->size(); i += 97) {
        ASSERT_EQ(loaded->siIndex(i), compiled->siIndex(i)) << i;
        ASSERT_EQ(loaded->taken(i), compiled->taken(i)) << i;
        ASSERT_EQ(loaded->nextPC(i), compiled->nextPC(i)) << i;
        ASSERT_EQ(loaded->memAddr(i), compiled->memAddr(i)) << i;
    }

    // A stale artifact under the same path (content changed -> new
    // key -> new file name) never collides; corrupting the file in
    // place demotes the next cold acquire to a recompile.
    {
        std::ofstream os(path,
                         std::ios::binary | std::ios::in | std::ios::out);
        os.seekp(64);
        os.put('\xff');
    }
    cache.clearMemory();
    const auto recompiled = cache.acquire(a, 2500);
    ASSERT_NE(recompiled, nullptr);
    EXPECT_EQ(cache.stats().compiles, 1u);
}

// The tsan preset runs this: four threads race to acquire the same
// (and different) traces; everyone must agree and nothing may tear.
TEST(TraceCache, ConcurrentAcquireIsSafeAndDeduplicated)
{
    const std::string dir = tempPath("elfsim_trace_cache_mt");
    ScopedCacheDir scoped(dir);
    TraceCache &cache = TraceCache::instance();

    const Program a = microRandomBranchLoop(8, 0.4);
    const Program b = microSequentialLoop(30, 16);
    std::vector<std::shared_ptr<const CompiledTrace>> got(8);
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&, t] {
            got[t] = cache.acquire(a, 3000);
            got[4 + t] = cache.acquire(b, 3000);
        });
    }
    for (std::thread &w : workers)
        w.join();

    for (int t = 1; t < 4; ++t) {
        EXPECT_EQ(got[t].get(), got[0].get());
        EXPECT_EQ(got[4 + t].get(), got[4].get());
    }
    EXPECT_NE(got[0].get(), got[4].get());
    EXPECT_EQ(cache.stats().compiles, 2u);
}

// End-to-end under the sweep engine: a 4-thread sweep with a shared
// disk cache stays deterministic and cycle-identical to the fully
// lazy run of the same grid.
TEST(TraceCache, FourThreadSweepMatchesLazySweep)
{
    const std::string dir = tempPath("elfsim_trace_cache_sweep");
    ScopedCacheDir scoped(dir);

    Program a = microRandomBranchLoop(8, 0.4);
    Program b = microSequentialLoop(30, 16);
    RunOptions o;
    o.warmupInsts = 10000;
    o.measureInsts = 20000;
    const std::vector<SweepJob> grid = {
        makeVariantJob(a, FrontendVariant::Dcf, o),
        makeVariantJob(a, FrontendVariant::UElf, o),
        makeVariantJob(b, FrontendVariant::Dcf, o),
        makeVariantJob(b, FrontendVariant::UElf, o),
    };

    SweepRunner traced(4);
    const std::vector<RunResult> withTraces = traced.run(grid);
    EXPECT_EQ(traced.traceStats().compiles, 2u);
    EXPECT_EQ(traced.traceStats().cacheHits, 2u);

    TraceCache::instance().setEnabled(false);
    SweepRunner lazy(4);
    const std::vector<RunResult> without = lazy.run(grid);
    TraceCache::instance().setEnabled(true);

    ASSERT_EQ(withTraces.size(), without.size());
    for (std::size_t i = 0; i < withTraces.size(); ++i) {
        EXPECT_EQ(withTraces[i].cycles, without[i].cycles) << i;
        EXPECT_EQ(withTraces[i].insts, without[i].insts) << i;
        EXPECT_EQ(withTraces[i].ipc, without[i].ipc) << i;
    }
}
