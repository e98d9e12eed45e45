#include <gtest/gtest.h>

#include "common/queue.hh"
#include "workload/builders.hh"
#include "workload/compiled_trace.hh"
#include "workload/oracle_stream.hh"
#include "workload/program_builder.hh"

using namespace elfsim;

// Death tests: the simulator panics loudly on API misuse and broken
// invariants instead of corrupting state.

TEST(Deaths, BuilderRequiresOpenBlock)
{
    ProgramBuilder b;
    EXPECT_DEATH(b.addFiller(1), "no open block");
}

TEST(Deaths, BuilderRejectsDoubleBegin)
{
    ProgramBuilder b;
    b.beginBlock();
    EXPECT_DEATH(b.beginBlock(), "not terminated");
}

TEST(Deaths, BuilderRejectsDanglingTarget)
{
    ProgramBuilder b;
    b.beginBlock();
    b.endJump(7); // block 7 never created
    EXPECT_DEATH(b.finalize("t"), "references block");
}

TEST(Deaths, BuilderRejectsFinalizeWithOpenBlock)
{
    ProgramBuilder b;
    b.beginBlock();
    EXPECT_DEATH(b.finalize("t"), "open block");
}

TEST(Deaths, OracleWindowOverflowIsLoud)
{
    ProgramBuilder b;
    b.beginBlock();
    b.addFiller(4);
    b.endJump(0);
    Program p = b.finalize("t");
    OracleStream os(p, /*window_cap=*/64);
    // Never retiring: the window must overflow with a clear message.
    EXPECT_DEATH(os.at(100000), "window overflow");
}

TEST(Deaths, OracleRejectsRetiredIndex)
{
    ProgramBuilder b;
    b.beginBlock();
    b.addFiller(4);
    b.endJump(0);
    Program p = b.finalize("t");
    OracleStream os(p);
    os.at(10);
    os.retireUpTo(5);
    EXPECT_DEATH(os.at(3), "older than window");
}

TEST(Deaths, CompiledTraceThatDisagreesWithItsProgramIsLoud)
{
    // The stream derives each instruction from the trace's tables and
    // the program image; tables compiled from another program must
    // trip the table asserts instead of serving a drifting stream.
    const Program compiled = microRandomBranchLoop(8, 0.4);
    const Program served = microSequentialLoop(30, 16);
    const auto trace = CompiledTrace::compile(compiled, 2000);
    EXPECT_DEATH(
        {
            OracleStream os(served, defaultOracleWindowCap, trace);
            for (SeqNum i = 1; i <= 2000; ++i) {
                os.at(i);
                os.retireUpTo(i);
            }
        },
        "compiled trace");
}

TEST(Deaths, QueueMisuse)
{
    BoundedQueue<int> q(2);
    EXPECT_DEATH(q.pop(), "empty");
    q.push(1);
    q.push(2);
    EXPECT_DEATH(q.push(3), "full");
}
