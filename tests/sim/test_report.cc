#include <gtest/gtest.h>

#include <sstream>

#include "sim/report.hh"
#include "workload/builders.hh"

using namespace elfsim;

TEST(Report, SummaryContainsHeadlineMetrics)
{
    Program p = microRandomBranchLoop(8, 0.4);
    Core core(makeConfig(FrontendVariant::UElf), p);
    core.run(30000);
    std::ostringstream os;
    TextReporter().summary(os, core);
    const std::string s = os.str();
    EXPECT_NE(s.find("IPC"), std::string::npos);
    EXPECT_NE(s.find("branch MPKI"), std::string::npos);
    EXPECT_NE(s.find("coupled periods"), std::string::npos);
    EXPECT_NE(s.find("U-ELF"), std::string::npos);
}

TEST(Report, FullReportCoversComponents)
{
    Program p = microRandomBranchLoop(8, 0.4);
    Core core(makeConfig(FrontendVariant::LElf), p);
    core.run(30000);
    std::ostringstream os;
    TextReporter().fullReport(os, core);
    const std::string s = os.str();
    EXPECT_NE(s.find("dcf blocks generated"), std::string::npos);
    EXPECT_NE(s.find("fetched (coupled)"), std::string::npos);
    EXPECT_NE(s.find("cumulative hit L0"), std::string::npos);
    EXPECT_NE(s.find("l1d"), std::string::npos);
    EXPECT_NE(s.find("committed branches"), std::string::npos);
}

TEST(Report, NoDcfReportSkipsDcfSections)
{
    Program p = microSequentialLoop(30, 16);
    Core core(makeConfig(FrontendVariant::NoDcf), p);
    core.run(20000);
    std::ostringstream os;
    TextReporter().fullReport(os, core);
    EXPECT_EQ(os.str().find("dcf blocks"), std::string::npos);
}

TEST(Report, ReporterPolymorphism)
{
    Program p = microSequentialLoop(30, 16);
    Core core(makeConfig(FrontendVariant::Dcf), p);
    core.run(20000);

    TextReporter text;
    JsonReporter json;
    const Reporter *reporters[] = {&text, &json};
    for (const Reporter *r : reporters) {
        std::ostringstream os;
        r->summary(os, core);
        EXPECT_NE(os.str().find("IPC"), std::string::npos);
    }
}
