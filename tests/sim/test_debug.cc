#include <gtest/gtest.h>

#include <sstream>

#include "common/stat_fields.hh"
#include "sim/core.hh"
#include "workload/builders.hh"

using namespace elfsim;

TEST(Debug, DebugDumpDoesNotCrash)
{
    Program p = microRandomBranchLoop(8, 0.4);
    Core core(makeConfig(FrontendVariant::UElf), p);
    core.run(5000);
    // Smoke: the deadlock diagnostic must be callable at any point.
    core.debugDump();
    core.run(5000);
    core.debugDump();
}

TEST(Debug, HierarchyStatsDump)
{
    MemHierarchy mem;
    mem.dataAccess(0x400000, 0x10000000, false, 0);
    mem.instFetch(0x400000, 0);
    std::ostringstream os;
    mem.visitStats([&os](const char *group, const auto &counters) {
        stats::print(os, group, counters);
    });
    const std::string s = os.str();
    EXPECT_NE(s.find("l0i.misses"), std::string::npos);
    EXPECT_NE(s.find("l1d.hits"), std::string::npos);
    EXPECT_NE(s.find("mem.accesses"), std::string::npos);
}

TEST(Debug, BtbEntryNumSlots)
{
    BtbEntry e;
    EXPECT_EQ(e.numSlots(), 0u);
    e.slots[1].valid = true;
    EXPECT_EQ(e.numSlots(), 1u);
    EXPECT_EQ(btbTerminationName(BtbTermination::SlotPressure),
              std::string("slot-pressure"));
}
