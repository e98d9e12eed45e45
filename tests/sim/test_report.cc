#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/stat_fields.hh"
#include "sim/report.hh"
#include "workload/builders.hh"

using namespace elfsim;

namespace {

std::string
reportOf(const Core &core)
{
    std::ostringstream os;
    printReport(os, core);
    return os.str();
}

} // namespace

TEST(Report, SummaryContainsHeadlineMetrics)
{
    Program p = microRandomBranchLoop(8, 0.4);
    Core core(makeConfig(FrontendVariant::UElf), p);
    core.run(30000);
    const std::string s = reportOf(core);
    EXPECT_NE(s.find("ipc"), std::string::npos);
    EXPECT_NE(s.find("branch_mpki"), std::string::npos);
    EXPECT_NE(s.find("elf.coupled_periods"), std::string::npos);
    EXPECT_NE(s.find("U-ELF"), std::string::npos);
}

TEST(Report, FullReportCoversComponents)
{
    Program p = microRandomBranchLoop(8, 0.4);
    Core core(makeConfig(FrontendVariant::LElf), p);
    core.run(30000);
    const std::string s = reportOf(core);
    EXPECT_NE(s.find("dcf.blocks"), std::string::npos);
    EXPECT_NE(s.find("coupled.insts"), std::string::npos);
    EXPECT_NE(s.find("btb_hit_l0"), std::string::npos);
    EXPECT_NE(s.find("l1d."), std::string::npos);
    EXPECT_NE(s.find("backend.committed_branches"), std::string::npos);
}

TEST(Report, NoDcfReportSkipsDcfSections)
{
    Program p = microSequentialLoop(30, 16);
    Core core(makeConfig(FrontendVariant::NoDcf), p);
    core.run(20000);
    EXPECT_EQ(reportOf(core).find("dcf."), std::string::npos);
}

// The stat tree is the report: every leaf of Core::visitStats prints
// exactly once, under a name no other leaf shares, with its value.
// Each group's fields are all 8 bytes wide, so a group whose
// visitFields forgot a member fails the size check.
TEST(Report, EveryCounterPrintedOnceUnderAUniqueName)
{
    Program p = microRandomBranchLoop(8, 0.4);
    Core core(makeConfig(FrontendVariant::UElf), p);
    core.run(30000);

    std::vector<std::pair<std::string, std::string>> leaves;
    core.visitStats([&](const char *group, const auto &counters) {
        std::size_t n = 0;
        stats::forEachLeaf(group, counters,
                           [&](const std::string &name, auto v) {
                               std::ostringstream os;
                               os << v;
                               leaves.emplace_back(name, os.str());
                               ++n;
                           });
        EXPECT_EQ(n * 8, sizeof(counters)) << group;
    });
    ASSERT_GT(leaves.size(), 60u);

    std::map<std::string, std::string> printed;
    std::map<std::string, int> times;
    std::istringstream in(reportOf(core));
    std::string name, value;
    while (in >> name >> value) {
        printed[name] = value;
        ++times[name];
        in.ignore(1 << 20, '\n');
    }
    std::set<std::string> names;
    for (const auto &[leaf, v] : leaves) {
        EXPECT_TRUE(names.insert(leaf).second) << "duplicate " << leaf;
        EXPECT_EQ(times[leaf], 1) << leaf;
        EXPECT_EQ(printed[leaf], v) << leaf;
    }
    // Counters the report used to leave out.
    for (const char *leaf :
         {"elf.coupled_cycles", "elf.decoupled_cycles", "elf.switches",
          "elf.trust_fetcher_flushes", "coupled.icache_stall_cycles",
          "mem_dep.trainings"})
        EXPECT_EQ(times[leaf], 1) << leaf;
}
