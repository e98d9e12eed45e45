/**
 * @file
 * Compiled-trace correctness: per-instruction identity with the lazy
 * generator over every catalog workload (including the lazy tail past
 * the compiled prefix and after seeks into the prefix), event tables
 * that match the lazy stream entry by entry, on-disk round-trip byte
 * identity, rejection of stale/truncated/corrupt/malformed artifacts,
 * TraceCache memoization and disk-persistence semantics, and
 * thread-safety of concurrent acquisition (the asan/tsan presets run
 * this binary).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/hash.hh"
#include "common/random.hh"
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

/** Every table entry, event count and the end state agree. */
void
expectSameTables(const CompiledTrace &a, const CompiledTrace &b)
{
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.numRuns(), b.numRuns());
    ASSERT_EQ(a.numBranchEvents(), b.numBranchEvents());
    ASSERT_EQ(a.numMemEvents(), b.numMemEvents());
    for (InstCount j = 0; j < a.numRuns(); ++j) {
        ASSERT_EQ(a.runPos(j), b.runPos(j)) << "run " << j;
        ASSERT_EQ(a.runPC(j), b.runPC(j)) << "run " << j;
    }
    for (InstCount j = 0; j < a.numBranchEvents(); ++j) {
        ASSERT_EQ(a.branchPos(j), b.branchPos(j)) << "branch " << j;
        ASSERT_EQ(a.branchTarget(j), b.branchTarget(j)) << "branch " << j;
        ASSERT_EQ(a.branchTaken(j), b.branchTaken(j)) << "branch " << j;
    }
    for (InstCount j = 0; j < a.numMemEvents(); ++j) {
        ASSERT_EQ(a.memPos(j), b.memPos(j)) << "mem " << j;
        ASSERT_EQ(a.memAddr(j), b.memAddr(j)) << "mem " << j;
        ASSERT_EQ(a.memIsStore(j), b.memIsStore(j)) << "mem " << j;
    }
    EXPECT_EQ(a.endState().pc, b.endState().pc);
    EXPECT_EQ(a.endState().callStack, b.endState().callStack);
    EXPECT_EQ(a.endState().condCount, b.endState().condCount);
    EXPECT_EQ(a.endState().indCount, b.endState().indCount);
    EXPECT_EQ(a.endState().memCount, b.endState().memCount);
}

/** The first @a n instructions of @a prog's lazy stream. */
std::vector<OracleInst>
lazyStream(const Program &prog, InstCount n)
{
    std::vector<OracleInst> out;
    out.reserve(n);
    OracleStream lazy(prog);
    for (SeqNum i = 1; i <= n; ++i) {
        out.push_back(lazy.at(i));
        lazy.retireUpTo(i);
    }
    return out;
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
    EXPECT_EQ(loaded->cacheKey(), trace->cacheKey());
    // Every table and the end state survive: the lazy tails must be
    // identical too.
    expectSameTables(*loaded, *trace);

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
    // 295 instructions give an odd number of u32 table entries.
    const Program prog = microRandomBranchLoop(8, 0.4);
    const auto trace = CompiledTrace::compile(prog, 295);
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

// The structure the readers index by is checked, not trusted: a file
// whose checksum is recomputed over a malformed event table — a
// position out of order, one past the prefix, a first run that does
// not start at 0 — is a ParseError, never an out-of-bounds read.
TEST(CompiledTrace, LoadRejectsMalformedEventTables)
{
    const Program prog = buildWorkload(workloadCatalog().front());
    const auto trace = CompiledTrace::compile(prog, 1000);
    const std::string path = tempPath("trace_malformed.etrace");
    trace->save(path);
    const std::string good = slurp(path);
    const std::uint64_t key = trace->cacheKey();

    // Magic, then 11 u64 header scalars; the checksum is the last.
    constexpr std::size_t headerBytes = 16 + 11 * 8;
    const auto scalar = [&good](int k) {
        std::uint64_t v;
        std::memcpy(&v, good.data() + 16 + 8 * k, 8);
        return v;
    };
    const std::uint64_t count = scalar(1);
    const std::uint64_t endWords =
        scalar(2) + scalar(3) + scalar(4) + scalar(5);
    const std::uint64_t nBranch = scalar(7), nRun = scalar(8),
                        nMem = scalar(9);
    const auto bitWords = [](std::uint64_t n) { return (n + 63) / 64; };
    const std::size_t branchPosAt =
        headerBytes + 8 * (endWords + nBranch + bitWords(nBranch) +
                           nRun + nMem + bitWords(nMem));
    const std::size_t runPosAt = branchPosAt + 4 * nBranch;
    const std::size_t memPosAt = runPosAt + 4 * nRun;
    ASSERT_EQ(memPosAt + 4 * nMem, good.size());
    ASSERT_GT(nBranch, 1u);
    ASSERT_GT(nRun, 1u);
    ASSERT_GT(nMem, 0u);

    const auto u32At = [&good](std::size_t at) {
        std::uint32_t v;
        std::memcpy(&v, good.data() + at, 4);
        return v;
    };
    // Store @a v as the u32 at @a at, re-checksum the file as the
    // writer does, and write it.
    const auto rewrite = [&](std::size_t at, std::uint32_t v) {
        std::string bytes = good;
        std::memcpy(&bytes[at], &v, 4);
        Checksum64 sum;
        for (int k = 0; k < 10; ++k)
            sum.u64(scalar(k));
        sum.bytes(bytes.data() + headerBytes, bytes.size() - headerBytes);
        const std::uint64_t check = sum.value();
        std::memcpy(&bytes[headerBytes - 8], &check, 8);
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), std::streamsize(bytes.size()));
    };

    // The helper is sound: rewriting a value with itself loads.
    rewrite(runPosAt, u32At(runPosAt));
    EXPECT_EQ(slurp(path), good);
    EXPECT_NO_THROW(CompiledTrace::load(path, key));

    // Branch events 0 and 1 swapped: positions out of order.
    rewrite(branchPosAt, u32At(branchPosAt + 4));
    EXPECT_THROW(CompiledTrace::load(path, key), ParseError);
    // A repeated run position (not strictly ascending).
    rewrite(runPosAt + 4, u32At(runPosAt));
    EXPECT_THROW(CompiledTrace::load(path, key), ParseError);
    // The last memory event past the prefix.
    rewrite(memPosAt + 4 * (nMem - 1), std::uint32_t(count));
    EXPECT_THROW(CompiledTrace::load(path, key), ParseError);
    // A first run that does not start at position 0.
    ASSERT_GT(u32At(runPosAt + 4), 1u);
    rewrite(runPosAt, 1);
    EXPECT_THROW(CompiledTrace::load(path, key), ParseError);
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

// The tables are the stream: every run (position, PC), branch event
// (position, next PC, taken) and memory event (position, address,
// store) — and the binary searches over them — agree with the lazy
// stream, for every catalog workload and after a disk round trip.
TEST(CompiledTrace, EventTablesMatchLazyStreamAcrossCatalog)
{
    constexpr InstCount n = 5000;
    for (const WorkloadSpec &w : workloadCatalog()) {
        const Program prog = buildWorkload(w);
        const std::vector<OracleInst> ref = lazyStream(prog, n);
        const auto compiled = CompiledTrace::compile(prog, n);
        const std::string path = tempPath("trace_tables.etrace");
        compiled->save(path);
        const auto loaded =
            CompiledTrace::load(path, compiled->cacheKey());
        std::remove(path.c_str());

        for (const auto &t : {compiled, loaded}) {
            ASSERT_EQ(t->size(), n) << w.name;
            InstCount b = 0, r = 0, m = 0;
            bool newRun = true;
            for (InstCount i = 0; i < n; ++i) {
                const OracleInst &oi = ref[i];
                if (newRun) {
                    ASSERT_LT(r, t->numRuns()) << w.name;
                    ASSERT_EQ(t->runPos(r), i) << w.name;
                    ASSERT_EQ(t->runPC(r), oi.si->pc) << w.name;
                    ++r;
                }
                ASSERT_EQ(t->runContaining(i), r - 1) << w.name;
                ASSERT_EQ(t->runEnd(r - 1),
                          r < t->numRuns() ? t->runPos(r) : n)
                    << w.name;
                ASSERT_EQ(t->firstBranchAtOrAfter(i), b) << w.name;
                if (oi.si->branch != BranchKind::None) {
                    ASSERT_LT(b, t->numBranchEvents()) << w.name;
                    ASSERT_EQ(t->branchPos(b), i) << w.name;
                    ASSERT_EQ(t->branchTarget(b), oi.nextPC) << w.name;
                    ASSERT_EQ(t->branchTaken(b), oi.taken) << w.name;
                    ++b;
                }
                ASSERT_EQ(t->firstMemAtOrAfter(i), m) << w.name;
                if (oi.si->isMemInst()) {
                    ASSERT_LT(m, t->numMemEvents()) << w.name;
                    ASSERT_EQ(t->memPos(m), i) << w.name;
                    ASSERT_EQ(t->memAddr(m), oi.memAddr) << w.name;
                    ASSERT_EQ(t->memIsStore(m), oi.si->isStore())
                        << w.name;
                    ++m;
                }
                // A run ends taken iff its last instruction is a
                // taken transfer (always, but for the last run).
                if (i + 1 == t->runEnd(r - 1)) {
                    ASSERT_EQ(t->runEndsTaken(r - 1), oi.taken)
                        << w.name;
                }
                newRun = oi.taken;
            }
            EXPECT_EQ(b, t->numBranchEvents()) << w.name;
            EXPECT_EQ(r, t->numRuns()) << w.name;
            EXPECT_EQ(m, t->numMemEvents()) << w.name;
        }
    }
}

// A seek anywhere into the prefix — or to its end, where the lazy
// tail takes over — positions every table cursor: the stream after
// the seek equals the lazy stream from there on.
TEST(CompiledTrace, SeekInsidePrefixMatchesLazyStream)
{
    constexpr InstCount compiled = 6000;
    constexpr InstCount follow = 2000;
    const auto &catalog = workloadCatalog();
    for (std::size_t wi = 0; wi < catalog.size(); wi += 5) {
        const WorkloadSpec &w = catalog[wi];
        const Program prog = buildWorkload(w);
        const std::vector<OracleInst> ref =
            lazyStream(prog, compiled + 1 + follow);
        const auto trace = CompiledTrace::compile(prog, compiled);
        ASSERT_GT(trace->numRuns(), 2u) << w.name;
        ASSERT_GT(trace->numBranchEvents(), 0u) << w.name;
        ASSERT_GT(trace->numMemEvents(), 0u) << w.name;

        // 1-based indices of the next instruction to serve.
        const InstCount midRun = trace->runEnd(1) - trace->runPos(1) > 1
                                     ? trace->runPos(1) + 1
                                     : trace->runPos(1);
        std::vector<SeqNum> seeks = {
            1,
            trace->runPos(2) + 1,                   // a run start
            midRun + 1,                             // mid-run
            trace->branchPos(trace->numBranchEvents() / 2) + 1,
            trace->memPos(trace->numMemEvents() / 2) + 1,
            compiled,                               // last compiled
            compiled + 1,                           // the lazy tail
        };
        Rng rng(0x5eec + wi);
        for (int k = 0; k < 8; ++k)
            seeks.push_back(1 + rng.below(compiled));

        OracleStream backed(prog, defaultOracleWindowCap, trace);
        for (const SeqNum idx : seeks) {
            backed.seekTo(idx);
            for (SeqNum i = idx; i < idx + follow; ++i) {
                expectSameInst(backed.at(i), ref[i - 1], i,
                               w.name + " after seek to " +
                                   std::to_string(idx));
                backed.retireUpTo(i);
            }
        }
    }
}

// An artifact in the retired v3 format (per-instruction arrays) must
// demote to a transparent recompile — never a failed acquisition —
// and the recompile overwrites the stale file with a loadable v4
// image.
TEST(TraceCache, RetiredV3ArtifactTransparentlyRecompiles)
{
    ScopedCacheDir scope(testing::TempDir() + "elfsim_trace_v3fb");
    TraceCache &cache = TraceCache::instance();
    const Program prog = microBtbMissChain(512, 6);

    const auto first = cache.acquire(prog, 3000);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(cache.stats().compiles, 1u);
    const std::string path = cache.filePath(prog, 3000);
    ASSERT_FALSE(path.empty());

    // Stamp the artifact with the retired v3 magic. Nothing else in
    // the file changes — magic rejection alone must trigger the
    // fallback.
    const std::string v4Magic("elfsim-trace-v4", 16); // with its NUL
    std::string bytes = slurp(path);
    ASSERT_EQ(bytes.substr(0, 16), v4Magic);
    bytes[14] = '3';
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

    // The refreshed artifact is v4 again and loads cleanly.
    EXPECT_EQ(slurp(path).substr(0, 16), v4Magic);
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
    expectSameTables(*loaded, *compiled);

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
