/**
 * @file
 * Batch functional-warming kernel identity tests: fast-forwarding
 * over the compiled trace's event tables (sim/warm_kernel.cc) must
 * leave the core in EXACTLY the state the scalar per-instruction loop
 * (Core::fastForwardScalar) produces — verified byte-for-byte on the
 * serialized warm state for every catalog workload (against the
 * scalar loop over the same trace and over the lazy generator, which
 * shares nothing with the tables), for windows that straddle the
 * compiled prefix end (mixed kernel + scalar), and end-to-end on
 * sampled-run results against a run with trace compilation disabled,
 * which warms with the scalar loop over the lazy generator.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "sim/config.hh"
#include "sim/export.hh"
#include "sim/runner.hh"
#include "workload/builders.hh"
#include "workload/catalog.hh"
#include "workload/checkpoint_store.hh"
#include "workload/compiled_trace.hh"
#include "workload/trace_cache.hh"

using namespace elfsim;

namespace {

// Sanitizer builds run several times slower; subsample the catalog
// there (same idiom as test_sampling).
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

/** Disable trace compilation for one scope: every stream is the
 *  lazy generator, so fast-forward runs the scalar loop. */
class ScopedTraceOff
{
  public:
    ScopedTraceOff() : prev(TraceCache::instance().enabled())
    {
        TraceCache::instance().setEnabled(false);
    }
    ~ScopedTraceOff() { TraceCache::instance().setEnabled(prev); }

  private:
    bool prev;
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

std::vector<std::uint8_t>
warmBytes(const Core &core)
{
    Serializer s;
    core.saveWarmState(s);
    return s.data();
}

std::string
toJson(const RunResult &r)
{
    std::ostringstream os;
    JsonWriter w(os);
    writeRunResult(w, r);
    return os.str();
}

/**
 * Fast-forward @a n instructions on a fresh core over @a trace (null:
 * the lazy generator), with the batch kernel (fastForward) or the
 * scalar loop alone (fastForwardScalar), and return the serialized
 * warm state. The fast-forward is split in two with an intervening
 * quiesce so cursor initialization mid-stream (not just at position
 * 0) is exercised every time.
 */
std::vector<std::uint8_t>
warmedState(const SimConfig &cfg, const Program &prog,
            const std::shared_ptr<const CompiledTrace> &trace,
            InstCount n, bool force_scalar)
{
    Core core(cfg, prog, trace);
    const auto warm = [&](InstCount k) {
        if (force_scalar)
            core.fastForwardScalar(k);
        else
            core.fastForward(k);
    };
    const InstCount first = n / 3;
    core.squashToCommitted();
    warm(first);
    core.squashToCommitted();
    warm(n - first);
    if (force_scalar) {
        EXPECT_EQ(core.warmStats().kernelInsts, 0u);
        EXPECT_EQ(core.warmStats().scalarInsts, n);
    } else {
        EXPECT_EQ(core.warmStats().kernelInsts, n);
        EXPECT_EQ(core.warmStats().scalarInsts, 0u);
    }
    EXPECT_EQ(core.consumedInsts(), n);
    return warmBytes(core);
}

} // namespace

// The hard guarantee behind the batch kernel: for every catalog
// workload and on both a DCF and a no-DCF frontend, the serialized
// warm state after a kernel fast-forward is byte-identical to the
// scalar loop's — TAGE/ITTAGE/bimodal/RAS, both BTB levels, the BTB
// builder, caches, memory-dependence state, and every cumulative
// counter, all at once. The scalar loop over the trace reads the
// same tables as the kernel, so the kernel is also compared with a
// core that has no trace at all.
TEST(WarmKernel, ByteIdenticalToScalarAcrossCatalog)
{
    // Long enough to cross many runs and lines, and strictly inside
    // the prefix.
    const InstCount n = 100000;
    unsigned wi = 0;
    for (const WorkloadSpec &w : workloadCatalog()) {
        if (wi++ % kCatalogStride != 0)
            continue;
        const Program p = buildWorkload(w);
        const auto trace = CompiledTrace::compile(p, n + 2048);
        for (FrontendVariant v :
             {FrontendVariant::UElf, FrontendVariant::NoDcf}) {
            const SimConfig cfg = makeConfig(v);
            const auto kernel = warmedState(cfg, p, trace, n, false);
            const auto scalar = warmedState(cfg, p, trace, n, true);
            const auto lazy = warmedState(cfg, p, nullptr, n, true);
            ASSERT_EQ(kernel, scalar)
                << w.name << " variant " << int(v);
            ASSERT_EQ(kernel, lazy)
                << w.name << " variant " << int(v) << " (no trace)";
        }
    }
}

// A fast-forward window that straddles the compiled prefix end warms
// the covered part with the kernel and the tail with the scalar loop;
// the result — including the oracle-generator resume state the
// checkpoint writer captures — must still match an all-scalar run.
TEST(WarmKernel, PrefixStraddleMixesKernelAndScalar)
{
    const Program p = microBtbMissChain(512, 6);
    const InstCount prefix = 50000;
    const InstCount n = 120000;
    const auto trace = CompiledTrace::compile(p, prefix);
    const SimConfig cfg = makeConfig(FrontendVariant::UElf);

    Core kernel(cfg, p, trace);
    kernel.squashToCommitted();
    kernel.fastForward(n);
    EXPECT_EQ(kernel.warmStats().kernelInsts, prefix);
    EXPECT_EQ(kernel.warmStats().scalarInsts, n - prefix);

    Core scalar(cfg, p, trace);
    scalar.squashToCommitted();
    scalar.fastForwardScalar(n);
    EXPECT_EQ(scalar.warmStats().kernelInsts, 0u);
    EXPECT_EQ(scalar.warmStats().scalarInsts, n);

    EXPECT_EQ(kernel.consumedInsts(), scalar.consumedInsts());
    EXPECT_EQ(warmBytes(kernel), warmBytes(scalar));

    // Both runs ended past the prefix: the generator resume state is
    // live on both paths and must agree bit for bit.
    ASSERT_TRUE(kernel.ffResumeStateValid());
    ASSERT_TRUE(scalar.ffResumeStateValid());
    Serializer ka, sa;
    kernel.ffResumeState().saveState(ka);
    scalar.ffResumeState().saveState(sa);
    EXPECT_EQ(ka.data(), sa.data());
}

// Inside the prefix neither path may expose generator resume state:
// the scalar loop leaves the stream window populated, the kernel
// reseeks — either way the checkpoint writer must see "not valid"
// so it never persists a stale generator.
TEST(WarmKernel, NoResumeStateInsidePrefixOnEitherPath)
{
    const Program p = microBtbMissChain(512, 6);
    const auto trace = CompiledTrace::compile(p, 60000);
    const SimConfig cfg = makeConfig(FrontendVariant::UElf);

    Core kernel(cfg, p, trace);
    kernel.squashToCommitted();
    kernel.fastForward(40000);
    EXPECT_FALSE(kernel.ffResumeStateValid());

    Core scalar(cfg, p, trace);
    scalar.squashToCommitted();
    scalar.fastForwardScalar(40000);
    EXPECT_FALSE(scalar.ffResumeStateValid());
    EXPECT_EQ(warmBytes(kernel), warmBytes(scalar));
}

// End-to-end switch: with trace compilation disabled a whole sampled
// run warms with the scalar loop over the lazy generator. The run
// must not fail — and must produce the exact same result JSON as the
// kernel-backed run, with only the warm.* work-split counters
// differing.
TEST(WarmKernel, PoisonedSideTablesDegradeToScalarWithIdenticalResult)
{
    ScopedCkptOff off;
    const Program p = buildWorkload(workloadCatalog().front());

    RunOptions so;
    so.warmupInsts = 0;
    so.measureInsts = 150000;
    so.samplePeriodInsts = 5000;
    so.sampleLengthInsts = 2000;
    so.sampleWarmupInsts = 500;

    const RunResult a = runVariant(p, FrontendVariant::UElf, so);
    RunResult b;
    {
        ScopedTraceOff lazy;
        b = runVariant(p, FrontendVariant::UElf, so);
    }

    // The traced run used the kernel for every fast-forwarded inst
    // (the whole schedule sits inside the capped compiled prefix);
    // the lazy run used none. Both splits must sum to the same
    // fast-forward total.
    EXPECT_GT(a.sampling.warmFfInsts, 0u);
    EXPECT_EQ(a.sampling.warmKernelInsts, a.sampling.warmFfInsts);
    EXPECT_EQ(a.sampling.warmScalarInsts, 0u);
    EXPECT_EQ(b.sampling.warmKernelInsts, 0u);
    EXPECT_EQ(b.sampling.warmScalarInsts, b.sampling.warmFfInsts);
    EXPECT_EQ(a.sampling.warmFfInsts, b.sampling.warmFfInsts);

    RunResult ja = a, jb = b;
    ja.sampling.warmKernelInsts = jb.sampling.warmKernelInsts = 0;
    ja.sampling.warmScalarInsts = jb.sampling.warmScalarInsts = 0;
    ja.sampling.warmBranchEvents = jb.sampling.warmBranchEvents = 0;
    ja.sampling.warmLinesTouched = jb.sampling.warmLinesTouched = 0;
    EXPECT_EQ(toJson(ja), toJson(jb));
}
