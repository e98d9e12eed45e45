/**
 * @file
 * CLI-contract test: every experiment harness (and the examples that
 * share its parser) exits 0 on `--help` and 2 on an unknown flag —
 * the uniform usage-error semantics scripts and run_all.sh rely on.
 * The removed sweep-policy flags (--deadline, --stall, --retries,
 * --manifest, --resume) are unknown flags: each exits 2 even when
 * followed by --help.
 *
 * The binary locations come from the ELFSIM_BENCH_DIR /
 * ELFSIM_EXAMPLES_DIR environment variables, which the ctest
 * registration sets from $<TARGET_FILE_DIR:...> generator
 * expressions.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace {

/** Exit status of `path args`, with stdout/stderr discarded. */
int
runTool(const std::string &path, const char *args)
{
    const std::string cmd =
        path + " " + args + " >/dev/null 2>/dev/null";
    const int rc = std::system(cmd.c_str());
    EXPECT_NE(rc, -1) << "system() failed for " << cmd;
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

void
expectUniformCli(const std::string &dir, const char *name)
{
    const std::string path = dir + "/" + name;
    EXPECT_EQ(runTool(path, "--help"), 0) << name << " --help";
    EXPECT_EQ(runTool(path, "--definitely-not-a-flag"), 2)
        << name << " with an unknown flag";
    for (const char *removed :
         {"--deadline 1 --help", "--stall 1 --help", "--retries 1 --help",
          "--manifest x --help", "--resume x --help"})
        EXPECT_EQ(runTool(path, removed), 2) << name << " " << removed;
}

std::string
requiredEnv(const char *name)
{
    const char *v = std::getenv(name);
    EXPECT_NE(v, nullptr)
        << name << " must be set by the ctest registration";
    return v ? v : "";
}

} // namespace

TEST(BenchCli, HelpExitsZeroAndUnknownFlagExitsTwo)
{
    const std::string benchDir = requiredEnv("ELFSIM_BENCH_DIR");
    ASSERT_FALSE(benchDir.empty());
    for (const char *name :
         {"bench_table1_workloads", "bench_table2_config",
          "bench_fig2_timing", "bench_fig3_flush_penalty",
          "bench_fig6_nodcf", "bench_fig7_elf_variants",
          "bench_fig8_lelf_uelf", "bench_fig9_geomean",
          "bench_ablation_elf", "bench_ablation_dcf",
          "bench_throughput"})
        expectUniformCli(benchDir, name);
}

TEST(BenchCli, ExamplesSharingTheParserFollowTheSameContract)
{
    const std::string dir = requiredEnv("ELFSIM_EXAMPLES_DIR");
    ASSERT_FALSE(dir.empty());
    expectUniformCli(dir, "server_capacity");
}
