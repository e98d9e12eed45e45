#include <gtest/gtest.h>

#include <deque>

#include "backend/backend.hh"
#include "workload/program_builder.hh"

using namespace elfsim;

namespace {

/** A small rig that feeds instructions straight into the back-end. */
struct Rig
{
    Program prog;
    MemHierarchy mem;
    MemDepPredictor mdp;
    Backend be;
    SeqNum nextSeq = 1;
    std::vector<DynInst> committed;

    explicit Rig(Program p, BackendParams bp = {})
        : prog(std::move(p)), mem(), mdp(), be(bp, mem, mdp)
    {
        be.setCommitHook([this](const DynInst &di) {
            committed.push_back(di);
        });
    }

    DynInst
    makeInst(const StaticInst *si, Addr mem_addr = invalidAddr)
    {
        DynInst di;
        di.si = si;
        di.seq = nextSeq++;
        di.oracleIdx = di.seq;
        di.memAddr = mem_addr;
        di.taken = false;
        di.actualNext = si->nextPC();
        return di;
    }

    /** Run n cycles starting from `cycle`. */
    Redirect
    run(Cycle &cycle, unsigned n)
    {
        Redirect r;
        for (unsigned i = 0; i < n; ++i)
            be.tick(++cycle, r);
        return r;
    }
};

Program
aluProgram(unsigned chain_len)
{
    ProgramBuilder b;
    b.beginBlock();
    // A dependency chain: each op reads the previous destination.
    for (unsigned i = 0; i < chain_len; ++i)
        b.addOp(InstClass::IntAlu, 1, 1);
    b.endJump(0);
    return b.finalize("alu_chain");
}

Program
independentProgram(unsigned n)
{
    ProgramBuilder b;
    b.beginBlock();
    for (unsigned i = 0; i < n; ++i)
        b.addOp(InstClass::IntAlu, RegIndex(i % 32),
                RegIndex(32 + i % 16));
    b.endJump(0);
    return b.finalize("alu_indep");
}

} // namespace

TEST(Backend, CommitsInOrder)
{
    Rig r(independentProgram(16));
    Cycle cycle = 0;
    for (unsigned i = 0; i < 16; ++i)
        r.be.accept(r.makeInst(&r.prog.instructions()[i]), 1);
    r.run(cycle, 30);
    ASSERT_EQ(r.committed.size(), 16u);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(r.committed[i].seq, i + 1);
}

TEST(Backend, DependencyChainSerializesExecution)
{
    // A chain of N dependent ALU ops takes ~N more cycles than N
    // independent ones.
    Rig chain(aluProgram(32));
    Cycle c1 = 0;
    for (unsigned i = 0; i < 32; ++i)
        chain.be.accept(chain.makeInst(&chain.prog.instructions()[i]),
                        1);
    while (chain.committed.size() < 32 && c1 < 300)
        chain.run(c1, 1);

    Rig indep(independentProgram(32));
    Cycle c2 = 0;
    for (unsigned i = 0; i < 32; ++i)
        indep.be.accept(indep.makeInst(&indep.prog.instructions()[i]),
                        1);
    while (indep.committed.size() < 32 && c2 < 300)
        indep.run(c2, 1);

    EXPECT_GT(c1, c2 + 20);
}

TEST(Backend, MispredictRequestsRedirect)
{
    ProgramBuilder pb;
    pb.beginBlock();
    pb.addFiller(2);
    CondSpec cs;
    pb.endCond(cs, 0);
    Program p = pb.finalize("br");

    Rig r(std::move(p));
    Cycle cycle = 0;
    for (unsigned i = 0; i < 2; ++i)
        r.be.accept(r.makeInst(&r.prog.instructions()[i]), 1);
    DynInst br = r.makeInst(&r.prog.instructions()[2]);
    br.hasPrediction = true;
    br.predTaken = false;
    br.predTarget = br.si->nextPC();
    br.taken = true;
    br.actualNext = br.si->directTarget;
    br.mispredict = true;
    const SeqNum brSeq = br.seq;
    r.be.accept(std::move(br), 1);

    Redirect red;
    for (unsigned i = 0; i < 20 && !red.pending(); ++i)
        r.be.tick(++cycle, red);
    ASSERT_TRUE(red.pending());
    EXPECT_EQ(red.kind, RedirectKind::ExecMispredict);
    EXPECT_EQ(red.survivorSeq, brSeq);
    EXPECT_EQ(red.targetPC, r.prog.instructions()[2].directTarget);
}

TEST(Backend, WrongPathBranchNeverRedirects)
{
    ProgramBuilder pb;
    pb.beginBlock();
    CondSpec cs;
    pb.endCond(cs, 0);
    Program p = pb.finalize("br");
    Rig r(std::move(p));

    // Block commit with a flush-pending head so the wrong-path branch
    // stays in flight (the core squashes wrong-path instructions
    // before they ever reach commit).
    DynInst blocker = r.makeInst(&r.prog.instructions()[0]);
    blocker.flushPending = true;
    r.be.accept(std::move(blocker), 1);
    DynInst br = r.makeInst(&r.prog.instructions()[0]);
    br.wrongPath = true;
    br.mispredict = false; // resolution == prediction on wrong path
    r.be.accept(std::move(br), 1);
    Cycle cycle = 0;
    Redirect red;
    for (unsigned i = 0; i < 15; ++i)
        r.be.tick(++cycle, red);
    EXPECT_FALSE(red.pending());
}

TEST(Backend, MemOrderViolationDetectedAndFiltered)
{
    // Store and a younger load to the same address; the load's source
    // is ready immediately while the store waits on a slow producer,
    // so the load executes first -> violation -> flush at the load;
    // the filter is trained.
    ProgramBuilder pb;
    pb.beginBlock();
    pb.addOp(InstClass::IntDiv, 5, 6); // slow producer of r5
    MemSpec ms;
    ms.regionBase = 0x20000;
    ms.regionSize = 64;
    pb.addStore(ms, 5, 5); // store depends on r5
    pb.addLoad(ms, 7);     // independent load, same region
    pb.addFiller(2);
    pb.endJump(0);
    Program p = pb.finalize("raw");
    Rig r(std::move(p));
    // Warm the data line: a cold load would miss to memory and
    // complete after the store, hiding the violation.
    r.mem.dataAccess(0, 0x20000, false, 0);

    Cycle cycle = 400;
    r.be.accept(r.makeInst(&r.prog.instructions()[0]), cycle); // div
    r.be.accept(r.makeInst(&r.prog.instructions()[1], 0x20000), cycle);
    DynInst load = r.makeInst(&r.prog.instructions()[2], 0x20000);
    const SeqNum loadSeq = load.seq;
    r.be.accept(std::move(load), cycle);

    Redirect red;
    for (unsigned i = 0; i < 40 && !red.pending(); ++i)
        r.be.tick(++cycle, red);
    ASSERT_TRUE(red.pending());
    EXPECT_EQ(red.kind, RedirectKind::MemOrder);
    EXPECT_EQ(red.survivorSeq, loadSeq - 1);
    EXPECT_EQ(r.mdp.storeFor(r.prog.instructions()[2].pc),
              r.prog.instructions()[1].pc);
}

TEST(Backend, FilteredLoadWaitsForStore)
{
    // Same shape, but pre-train the filter: the load must wait and no
    // violation occurs.
    ProgramBuilder pb;
    pb.beginBlock();
    pb.addOp(InstClass::IntDiv, 5, 6);
    MemSpec ms;
    ms.regionBase = 0x20000;
    ms.regionSize = 64;
    pb.addStore(ms, 5, 5);
    pb.addLoad(ms, 7);
    pb.addFiller(2);
    pb.endJump(0);
    Program p = pb.finalize("raw2");
    Rig r(std::move(p));
    r.mdp.train(r.prog.instructions()[2].pc,
                r.prog.instructions()[1].pc);
    r.mem.dataAccess(0, 0x20000, false, 0);

    Cycle cycle = 400;
    r.be.accept(r.makeInst(&r.prog.instructions()[0]), cycle);
    r.be.accept(r.makeInst(&r.prog.instructions()[1], 0x20000), cycle);
    r.be.accept(r.makeInst(&r.prog.instructions()[2], 0x20000), cycle);

    Redirect red;
    for (unsigned i = 0; i < 60; ++i)
        r.be.tick(++cycle, red);
    EXPECT_FALSE(red.pending());
    EXPECT_EQ(r.be.stats().memOrderFlushes, 0u);
    EXPECT_EQ(r.committed.size(), 3u);
}

TEST(Backend, SquashRemovesYoungerAndRebuildsScoreboard)
{
    Rig r(independentProgram(16));
    Cycle cycle = 0;
    for (unsigned i = 0; i < 8; ++i)
        r.be.accept(r.makeInst(&r.prog.instructions()[i]), 1);
    r.run(cycle, 4);
    r.be.squashYoungerThan(4);
    EXPECT_EQ(r.be.robSize(), 4u);
    // New instructions after the squash still flow to commit.
    for (unsigned i = 8; i < 12; ++i)
        r.be.accept(r.makeInst(&r.prog.instructions()[i]), cycle);
    r.run(cycle, 30);
    EXPECT_EQ(r.committed.size(), 8u);
}

TEST(Backend, FlushPendingBlocksCommit)
{
    Rig r(independentProgram(4));
    Cycle cycle = 0;
    DynInst di = r.makeInst(&r.prog.instructions()[0]);
    di.flushPending = true;
    r.be.accept(std::move(di), 1);
    r.run(cycle, 20);
    EXPECT_TRUE(r.committed.empty());
    r.be.findInFlightMutable(1)->flushPending = false;
    r.run(cycle, 10);
    EXPECT_EQ(r.committed.size(), 1u);
}

TEST(Backend, CoupledCommitCounted)
{
    Rig r(independentProgram(4));
    Cycle cycle = 0;
    DynInst di = r.makeInst(&r.prog.instructions()[0]);
    di.mode = FetchMode::Coupled;
    r.be.accept(std::move(di), 1);
    r.run(cycle, 20);
    EXPECT_EQ(r.be.stats().coupledCommitted, 1u);
}

TEST(Backend, SeqSlotIndexSurvivesSquashAndRingWraparound)
{
    // Small ROB so the ring position counter wraps several times; the
    // stable-position seq index handed to the IQ/LSQ must keep
    // re-validating slot seqs across squashes and wraps.
    BackendParams bp;
    bp.robEntries = 8;
    bp.iqEntries = 8;
    bp.lsqEntries = 8;
    Rig r(independentProgram(16), bp);
    Cycle cycle = 0;

    // Fill partway, then squash the younger half before anything
    // commits: seqs 4..6 vanish, 1..3 survive.
    for (unsigned i = 0; i < 6; ++i)
        r.be.accept(r.makeInst(&r.prog.instructions()[i]), cycle);
    EXPECT_EQ(r.be.robSize(), 6u);
    r.be.squashYoungerThan(3);
    EXPECT_EQ(r.be.robSize(), 3u);
    ASSERT_NE(r.be.findInFlightMutable(2), nullptr);
    EXPECT_EQ(r.be.findInFlightMutable(2)->seq, 2u);
    EXPECT_EQ(r.be.findInFlightMutable(5), nullptr);

    // Refill while draining so the 8-entry ring wraps ~5 times.
    unsigned fed = 0;
    while (r.committed.size() < 40 && cycle < 2000) {
        if (fed < 37 && r.be.canAccept(1)) {
            r.be.accept(
                r.makeInst(&r.prog.instructions()[fed % 16]), cycle);
            ++fed;
        }
        r.run(cycle, 1);
    }
    ASSERT_EQ(r.committed.size(), 40u);

    // Strictly increasing seqs, and no squashed seq ever commits.
    SeqNum prev = 0;
    for (const DynInst &di : r.committed) {
        EXPECT_GT(di.seq, prev);
        EXPECT_TRUE(di.seq <= 3 || di.seq >= 7) << di.seq;
        prev = di.seq;
    }
    EXPECT_TRUE(r.be.empty());
}

// Select and wakeup timing. The commit hook copies each instruction,
// so completeCycle pins its issue cycle: issue + issueToExec + latency
// - 1. Instructions accepted at cycle 0 dispatch at decodeToDispatch
// (3) and issue at cycle 4 at the earliest.

namespace {

constexpr Cycle firstIssue = 4;

/** Complete cycle of an instruction of latency @a lat issued at @a at. */
Cycle
doneAt(Cycle at, Cycle lat)
{
    return at + BackendParams{}.issueToExec + lat - 1;
}

/** Feed @a n instructions, cycling over the program's first @a body
 *  ones, whenever the ROB has room; tick until all of them commit. */
void
feedAndDrain(Rig &r, unsigned n, unsigned body, Cycle limit)
{
    Cycle cycle = 0;
    unsigned fed = 0;
    while (r.committed.size() < n && cycle < limit) {
        while (fed < n && r.be.canAccept(1)) {
            r.be.accept(r.makeInst(&r.prog.instructions()[fed % body]),
                        cycle);
            ++fed;
        }
        r.run(cycle, 1);
    }
}

} // namespace

TEST(Backend, TwoOldestMemOpsTakeTheLdStPortsAndYoungerAluStillIssues)
{
    ProgramBuilder pb;
    pb.beginBlock();
    MemSpec ms;
    ms.regionBase = 0x20000;
    ms.regionSize = 64;
    pb.addLoad(ms, 1);
    pb.addStore(ms);
    pb.addLoad(ms, 2);
    pb.addOp(InstClass::IntAlu, 3);
    pb.endJump(0);
    Program p = pb.finalize("ports");
    Rig r(std::move(p));
    r.mem.dataAccess(0, 0x20000, false, 0);
    const Cycle hit = r.mem.l1d().config().hitLatency;

    // Start once the warming fill has arrived.
    const Cycle t0 = 400;
    Cycle cycle = t0;
    r.be.accept(r.makeInst(&r.prog.instructions()[0], 0x20000), t0);
    r.be.accept(r.makeInst(&r.prog.instructions()[1], 0x30000), t0);
    r.be.accept(r.makeInst(&r.prog.instructions()[2], 0x20000), t0);
    r.be.accept(r.makeInst(&r.prog.instructions()[3]), t0);
    r.run(cycle, 30);
    ASSERT_EQ(r.committed.size(), 4u);
    const Cycle at = t0 + firstIssue;
    EXPECT_EQ(r.committed[0].completeCycle, doneAt(at, hit));
    EXPECT_EQ(r.committed[1].completeCycle, doneAt(at, 1));
    EXPECT_EQ(r.committed[2].completeCycle, doneAt(at + 1, hit));
    EXPECT_EQ(r.committed[3].completeCycle, doneAt(at, 1));
}

TEST(Backend, IssueWidthSelectsExactlyTheOldestReady)
{
    BackendParams bp;
    bp.issueWidth = 3;
    bp.numAlu = 8;
    Rig r(independentProgram(8), bp);
    Cycle cycle = 0;
    for (unsigned i = 0; i < 8; ++i)
        r.be.accept(r.makeInst(&r.prog.instructions()[i]), 0);
    r.run(cycle, 30);
    ASSERT_EQ(r.committed.size(), 8u);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(r.committed[i].completeCycle,
                  doneAt(firstIssue + i / 3, 1))
            << "seq " << r.committed[i].seq;
}

TEST(Backend, ConsumerReadingOneProducerTwiceIssuesAtItsCompletion)
{
    ProgramBuilder pb;
    pb.beginBlock();
    pb.addOp(InstClass::IntDiv, 5, 6);
    pb.addOp(InstClass::IntAlu, 7, 5, 5);
    pb.endJump(0);
    Program p = pb.finalize("twice");
    Rig r(std::move(p));
    Cycle cycle = 0;
    r.be.accept(r.makeInst(&r.prog.instructions()[0]), 0);
    r.be.accept(r.makeInst(&r.prog.instructions()[1]), 0);
    r.run(cycle, 40);
    ASSERT_EQ(r.committed.size(), 2u);
    const Cycle divDone = doneAt(firstIssue, BackendParams{}.divLatency);
    EXPECT_EQ(r.committed[0].completeCycle, divDone);
    EXPECT_EQ(r.committed[1].completeCycle, doneAt(divDone, 1));
}

TEST(Backend, FilteredLoadIssuesOnlyAfterRegisterSourceAndStore)
{
    // The store's data and the load's address each come from one of
    // two producers (div: slow, mul: fast); the filter makes the load
    // wait for the store too. Either way round the load issues in the
    // cycle the later of the two completes.
    const BackendParams bp;
    for (bool storeSlow : {true, false}) {
        ProgramBuilder pb;
        pb.beginBlock();
        pb.addOp(InstClass::IntDiv, 5, 6);
        pb.addOp(InstClass::IntMul, 8, 6);
        MemSpec ms;
        ms.regionBase = 0x20000;
        ms.regionSize = 64;
        pb.addStore(ms, storeSlow ? 5 : 8);
        pb.addLoad(ms, 10, storeSlow ? 8 : 5);
        pb.endJump(0);
        Program p = pb.finalize("filtered");
        Rig r(std::move(p));
        r.mdp.train(r.prog.instructions()[3].pc,
                    r.prog.instructions()[2].pc);
        r.mem.dataAccess(0, 0x20000, false, 0);
        const Cycle hit = r.mem.l1d().config().hitLatency;

        const Cycle t0 = 400;
        Cycle cycle = t0;
        r.be.accept(r.makeInst(&r.prog.instructions()[0]), t0);
        r.be.accept(r.makeInst(&r.prog.instructions()[1]), t0);
        r.be.accept(r.makeInst(&r.prog.instructions()[2], 0x20000), t0);
        r.be.accept(r.makeInst(&r.prog.instructions()[3], 0x20000), t0);
        r.run(cycle, 60);
        ASSERT_EQ(r.committed.size(), 4u);
        EXPECT_EQ(r.be.stats().memOrderFlushes, 0u);

        const Cycle divDone = doneAt(t0 + firstIssue, bp.divLatency);
        const Cycle mulDone = doneAt(t0 + firstIssue, bp.mulLatency);
        const Cycle storeDone =
            doneAt(storeSlow ? divDone : mulDone, 1);
        const Cycle regDone = storeSlow ? mulDone : divDone;
        EXPECT_EQ(r.committed[2].completeCycle, storeDone);
        EXPECT_EQ(r.committed[3].completeCycle,
                  doneAt(std::max(storeDone, regDone), hit))
            << (storeSlow ? "store completes last"
                          : "register source completes last");
    }
}

TEST(Backend, SquashedConsumerLeavesNoWakeupForItsSlotsNextOwner)
{
    // C reads the fast producer P and is squashed while waiting on it.
    // X reuses C's seq and ROB slot: independent, it issues as soon as
    // it dispatches; reading the slow producer Q instead, it issues at
    // Q's completion — not at P's.
    const BackendParams bp;
    for (bool readsQ : {true, false}) {
        ProgramBuilder pb;
        pb.beginBlock();
        pb.addOp(InstClass::IntMul, 5, 6);               // P
        pb.addOp(InstClass::IntDiv, 9, 6);               // Q
        pb.addOp(InstClass::IntAlu, 7, 5);               // C
        pb.addOp(InstClass::IntAlu, 7, readsQ ? 9 : 11); // X
        pb.endJump(0);
        Program p = pb.finalize("reuse");
        Rig r(std::move(p));

        Cycle cycle = 0;
        for (unsigned i = 0; i < 3; ++i)
            r.be.accept(r.makeInst(&r.prog.instructions()[i]), 0);
        r.run(cycle, 3); // all three dispatched, none issued
        r.be.squashYoungerThan(2);
        r.nextSeq = 3;
        const Cycle xDispatch = cycle + bp.decodeToDispatch;
        r.be.accept(r.makeInst(&r.prog.instructions()[3]), cycle);
        r.run(cycle, 40);
        ASSERT_EQ(r.committed.size(), 3u);
        ASSERT_EQ(r.committed[2].seq, 3u);

        const Cycle qDone = doneAt(firstIssue, bp.divLatency);
        EXPECT_EQ(r.committed[0].completeCycle,
                  doneAt(firstIssue, bp.mulLatency));
        EXPECT_EQ(r.committed[2].completeCycle,
                  readsQ ? doneAt(qDone, 1) : doneAt(xDispatch + 1, 1))
            << (readsQ ? "X reads Q" : "X independent");
    }
}

TEST(Backend, SelectKeepsAgeOrderAcrossA100EntryRingWrap)
{
    // 100 entries: the ring is not a multiple of 64 and wraps four
    // times. With one issue slot, independent ops must issue strictly
    // oldest first, one per cycle, whichever ROB slots they hold.
    BackendParams bp;
    bp.robEntries = 100;
    bp.iqEntries = 100;
    bp.issueWidth = 1;
    constexpr unsigned n = 450;
    Rig indep(independentProgram(16), bp);
    feedAndDrain(indep, n, 16, 2000);
    ASSERT_EQ(indep.committed.size(), n);
    for (unsigned k = 0; k < n; ++k) {
        ASSERT_EQ(indep.committed[k].seq, k + 1);
        EXPECT_EQ(indep.committed[k].completeCycle,
                  doneAt(firstIssue + k, 1))
            << "seq " << k + 1;
    }

    // A dependency chain through every slot of the same ring: each op
    // wakes in its producer's completion cycle.
    bp.issueWidth = BackendParams{}.issueWidth;
    constexpr unsigned chain = 350;
    Rig dep(aluProgram(1), bp);
    feedAndDrain(dep, chain, 1, 2000);
    ASSERT_EQ(dep.committed.size(), chain);
    for (unsigned k = 0; k < chain; ++k)
        EXPECT_EQ(dep.committed[k].completeCycle,
                  doneAt(firstIssue + 3 * k, 1))
            << "seq " << k + 1;
}

// Memory-ordering pins: which store a filtered load waits for, which
// younger loads a completing store flushes, and the LSQ capacity stall.

namespace {

/** Static instructions of memProgram(), by role. */
enum MemOp : unsigned {
    Div5,      ///< r5 <- r6, slow
    Mul8,      ///< r8 <- r6
    StoreS,    ///< the filter's recorded store; data r5
    StoreO,    ///< another store PC; data r8
    LoadL,     ///< r10 <- [..]
    LoadM,     ///< r11 <- [..], a second load PC
    Filler,
};

Program
memProgram()
{
    ProgramBuilder pb;
    pb.beginBlock();
    pb.addOp(InstClass::IntDiv, 5, 6);
    pb.addOp(InstClass::IntMul, 8, 6);
    MemSpec ms;
    ms.regionBase = 0x20000;
    ms.regionSize = 64;
    pb.addStore(ms, 5);
    pb.addStore(ms, 8);
    pb.addLoad(ms, 10);
    pb.addLoad(ms, 11);
    pb.addFiller(1);
    pb.endJump(0);
    return pb.finalize("memops");
}

} // namespace

TEST(Backend, FilteredLoadWaitsForYoungestOlderIncompleteStoreWithItsPC)
{
    // In flight when the load dispatches, oldest first: a completed
    // store S1 with the recorded PC, an incomplete one S2 with that PC
    // (its data comes from a div), and a younger incomplete store S3
    // with another PC (data from a mul). The load must wait for S2:
    // not for S1 (complete), not for S3 (other PC).
    const BackendParams bp;
    Rig r(memProgram());
    const auto &si = r.prog.instructions();
    r.mdp.train(si[LoadL].pc, si[StoreS].pc);
    r.mem.dataAccess(0, 0x20000, false, 0);
    const Cycle hit = r.mem.l1d().config().hitLatency;

    // A flush-pending head keeps everything in flight.
    const Cycle t0 = 400;
    Cycle cycle = t0;
    DynInst blocker = r.makeInst(&si[Filler]);
    blocker.flushPending = true;
    const SeqNum blockerSeq = blocker.seq;
    r.be.accept(std::move(blocker), t0);
    DynInst s1 = r.makeInst(&si[StoreS], 0x20000);
    const SeqNum s1Seq = s1.seq;
    r.be.accept(std::move(s1), t0);
    r.run(cycle, 8);
    ASSERT_TRUE(r.be.findInFlightMutable(s1Seq)->completed);

    const Cycle t1 = cycle;
    r.be.accept(r.makeInst(&si[Div5]), t1);
    r.be.accept(r.makeInst(&si[StoreS], 0x20000), t1);
    r.be.accept(r.makeInst(&si[Mul8]), t1);
    r.be.accept(r.makeInst(&si[StoreO], 0x30000), t1);
    DynInst load = r.makeInst(&si[LoadL], 0x20000);
    const SeqNum loadSeq = load.seq;
    r.be.accept(std::move(load), t1);
    r.run(cycle, 40);

    const DynInst *ld = r.be.findInFlightMutable(loadSeq);
    ASSERT_NE(ld, nullptr);
    ASSERT_TRUE(ld->completed);
    const Cycle divDone = doneAt(t1 + firstIssue, bp.divLatency);
    const Cycle s2Done = doneAt(divDone, 1);
    EXPECT_EQ(ld->completeCycle, doneAt(s2Done, hit));
    EXPECT_EQ(r.be.stats().memOrderFlushes, 0u);

    r.be.findInFlightMutable(blockerSeq)->flushPending = false;
    r.run(cycle, 10);
    EXPECT_EQ(r.committed.size(), 7u);
    EXPECT_TRUE(r.be.empty());
}

TEST(Backend, StoreCompletionSparesOtherGranulesWrongPathAndOlderLoads)
{
    // A store waiting on a div completes after three loads to the same
    // line have executed: an older load on its granule, a younger one
    // in the next 8-byte granule and a younger wrong-path one on its
    // granule. None of them is a violation.
    Rig r(memProgram());
    const auto &si = r.prog.instructions();
    r.mem.dataAccess(0, 0x20000, false, 0);

    const Cycle t0 = 400;
    Cycle cycle = t0;
    DynInst blocker = r.makeInst(&si[Filler]);
    blocker.flushPending = true;
    const SeqNum blockerSeq = blocker.seq;
    r.be.accept(std::move(blocker), t0);
    r.be.accept(r.makeInst(&si[Div5]), t0);
    DynInst older = r.makeInst(&si[LoadL], 0x20004);
    const SeqNum olderSeq = older.seq;
    r.be.accept(std::move(older), t0);
    DynInst store = r.makeInst(&si[StoreS], 0x20000);
    const SeqNum storeSeq = store.seq;
    r.be.accept(std::move(store), t0);
    DynInst other = r.makeInst(&si[LoadL], 0x20008);
    const SeqNum otherSeq = other.seq;
    r.be.accept(std::move(other), t0);
    DynInst wrong = r.makeInst(&si[LoadM], 0x20000);
    wrong.wrongPath = true;
    const SeqNum wrongSeq = wrong.seq;
    r.be.accept(std::move(wrong), t0);

    // Run until just before the store completes: every load is done.
    const Cycle storeDone =
        doneAt(doneAt(t0 + firstIssue, BackendParams{}.divLatency), 1);
    Redirect red = r.run(cycle, unsigned(storeDone - 1 - t0));
    for (SeqNum s : {olderSeq, otherSeq, wrongSeq})
        EXPECT_TRUE(r.be.findInFlightMutable(s)->completed) << s;
    EXPECT_FALSE(r.be.findInFlightMutable(storeSeq)->completed);

    Redirect after = r.run(cycle, 5);
    EXPECT_TRUE(r.be.findInFlightMutable(storeSeq)->completed);
    EXPECT_FALSE(red.pending());
    EXPECT_FALSE(after.pending());
    EXPECT_EQ(r.be.stats().memOrderFlushes, 0u);
    EXPECT_EQ(r.mdp.storeFor(si[LoadL].pc), invalidAddr);
    EXPECT_EQ(r.mdp.storeFor(si[LoadM].pc), invalidAddr);

    // The wrong-path load never reaches commit.
    r.be.squashYoungerThan(wrongSeq - 1);
    r.be.findInFlightMutable(blockerSeq)->flushPending = false;
    r.run(cycle, 10);
    EXPECT_EQ(r.committed.size(), 5u);
    EXPECT_TRUE(r.be.empty());
}

TEST(Backend, StoreFlushesFromTheOldestViolatingLoad)
{
    // Two younger loads on the store's granule both execute before it:
    // the flush keeps everything older than the first of them, and only
    // that load's PC is trained.
    Rig r(memProgram());
    const auto &si = r.prog.instructions();
    r.mem.dataAccess(0, 0x20000, false, 0);

    const Cycle t0 = 400;
    Cycle cycle = t0;
    r.be.accept(r.makeInst(&si[Div5]), t0);
    r.be.accept(r.makeInst(&si[StoreS], 0x20000), t0);
    r.be.accept(r.makeInst(&si[Filler]), t0);
    DynInst first = r.makeInst(&si[LoadL], 0x20000);
    const SeqNum firstSeq = first.seq;
    r.be.accept(std::move(first), t0);
    r.be.accept(r.makeInst(&si[LoadM], 0x20006), t0);

    Redirect red;
    for (unsigned i = 0; i < 40 && !red.pending(); ++i)
        r.be.tick(++cycle, red);
    ASSERT_TRUE(red.pending());
    EXPECT_EQ(red.kind, RedirectKind::MemOrder);
    EXPECT_EQ(red.survivorSeq, firstSeq - 1);
    EXPECT_EQ(red.targetPC, si[LoadL].pc);
    EXPECT_EQ(r.be.stats().memOrderFlushes, 1u);
    EXPECT_EQ(r.mdp.storeFor(si[LoadL].pc), si[StoreS].pc);
    EXPECT_EQ(r.mdp.storeFor(si[LoadM].pc), invalidAddr);
}

TEST(Backend, FullLsqStallsDispatchUntilMemoryOpsCommit)
{
    // Three LSQ entries, five independent loads and a trailing ALU op.
    // The fourth load and everything behind it wait in rename until
    // the first two loads commit and free their entries.
    BackendParams bp;
    bp.lsqEntries = 3;
    Rig r(memProgram(), bp);
    const auto &si = r.prog.instructions();
    r.mem.dataAccess(0, 0x20000, false, 0);
    const Cycle hit = r.mem.l1d().config().hitLatency;

    const Cycle t0 = 400;
    Cycle cycle = t0;
    for (unsigned i = 0; i < 5; ++i)
        r.be.accept(r.makeInst(&si[LoadL], 0x20000 + 8 * i), t0);
    r.be.accept(r.makeInst(&si[Filler]), t0);

    r.run(cycle, 4); // dispatch at t0 + 3, first issue at t0 + 4
    EXPECT_EQ(r.be.lsqSize(), 3u);
    EXPECT_EQ(r.be.iqSize(), 1u); // the third load lost the port race
    r.run(cycle, 40);
    ASSERT_EQ(r.committed.size(), 6u);
    EXPECT_EQ(r.be.lsqSize(), 0u);

    // Ports: two loads per cycle. Loads 1-2 commit the cycle after they
    // complete, which frees room for loads 4-5 and the ALU op to
    // dispatch in that same cycle and issue in the next.
    const Cycle early = doneAt(t0 + firstIssue, hit);
    EXPECT_EQ(r.committed[0].completeCycle, early);
    EXPECT_EQ(r.committed[1].completeCycle, early);
    EXPECT_EQ(r.committed[2].completeCycle, doneAt(t0 + firstIssue + 1, hit));
    const Cycle resumed = early + 2;
    EXPECT_EQ(r.committed[3].completeCycle, doneAt(resumed, hit));
    EXPECT_EQ(r.committed[4].completeCycle, doneAt(resumed, hit));
    EXPECT_EQ(r.committed[5].completeCycle, doneAt(resumed, 1));
}
