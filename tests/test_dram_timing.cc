/**
 * @file
 * Cycle-exact unit tests for the main-memory timing model (paper
 * section 2.3.4): row-buffer hit vs miss vs conflict latencies,
 * bank-conflict serialization through tRC, multibank interleaving
 * through tRRD, all-bank refresh blocking, and power-down exit
 * penalties.  Every expectation is computed by hand from the timing
 * parameters, so a regression in the command scheduler shows up as an
 * exact cycle diff.
 */

#include <gtest/gtest.h>

#include "sim/cpu/system.hh"
#include "sim/dram/dram.hh"

using namespace archsim;

namespace {

/**
 * One channel, four banks, 1KB pages: page p lives in bank p%4, row
 * p/4.  Default timings: tRCD=30 CL=30 tRP=22 tRAS=68 tRRD=12
 * tBurst=5 tController=8.
 */
DramParams
testParams()
{
    DramParams p;
    p.nChannels = 1;
    p.banksPerChannel = 4;
    p.pageBytes = 1024;
    return p;
}

// Page-aligned addresses for (bank, row) under testParams().
constexpr Addr kBank0Row0 = 0;
constexpr Addr kBank1Row0 = 1024;
constexpr Addr kBank0Row1 = 4 * 1024;

} // namespace

TEST(DramTiming, FirstAccessPaysActivateAndCas)
{
    MemorySystem mem(testParams());
    // tController + tRCD + CL + tBurst = 8 + 30 + 30 + 5.
    EXPECT_EQ(mem.access(kBank0Row0, false, 0), 73u);
    EXPECT_EQ(mem.counters().activates, 1u);
    EXPECT_EQ(mem.counters().rowHits, 0u);
}

TEST(DramTiming, RowBufferHitSkipsActivate)
{
    MemorySystem mem(testParams());
    mem.access(kBank0Row0, false, 0);
    // Same row, different line: tController + CL + tBurst = 43.
    EXPECT_EQ(mem.access(kBank0Row0 + 64, false, 100), 43u);
    EXPECT_EQ(mem.counters().rowHits, 1u);
    EXPECT_EQ(mem.counters().activates, 1u);
}

TEST(DramTiming, RowConflictPaysPrechargeThenActivate)
{
    MemorySystem mem(testParams());
    mem.access(kBank0Row0, false, 0);
    // Different row in the same bank, long after tRC has elapsed:
    // tController + tRP + tRCD + CL + tBurst = 95.
    EXPECT_EQ(mem.access(kBank0Row1, false, 200), 95u);
    EXPECT_EQ(mem.counters().activates, 2u);
    EXPECT_EQ(mem.counters().rowHits, 0u);
}

TEST(DramTiming, BackToBackBankConflictSerializesOnTRas)
{
    MemorySystem mem(testParams());
    EXPECT_EQ(mem.access(kBank0Row0, false, 0), 73u);
    // Second access to the same bank, other row, issued at the same
    // cycle: the activate must wait for the first activate (at 8) to
    // finish tRAS + tRP, i.e. until 98, giving 98 + 30 + 30 + 5 = 163.
    EXPECT_EQ(mem.access(kBank0Row1, false, 0), 163u);
}

TEST(DramTiming, BackToBackDifferentBanksInterleaveOnTRrd)
{
    MemorySystem mem(testParams());
    EXPECT_EQ(mem.access(kBank0Row0, false, 0), 73u);
    // Different bank: only the tRRD activate spacing (8 + 12 = 20) and
    // the shared data bus constrain it; data waits for the first
    // burst to clear the bus at 73, so done = 73 + tBurst + ... here
    // column access completes at 20 + 30 + 30 = 80 > 73, so the bus is
    // free: done = 85.
    EXPECT_EQ(mem.access(kBank1Row0, false, 0), 85u);
}

TEST(DramTiming, ClosedPagePolicyNeverHitsRowBuffer)
{
    DramParams p = testParams();
    p.policy = PagePolicy::Closed;
    MemorySystem mem(p);
    mem.access(kBank0Row0, false, 0);
    // Same row again, long after the auto-precharge window: a fresh
    // activate (73 cycles), not a 43-cycle row hit.
    EXPECT_EQ(mem.access(kBank0Row0 + 64, false, 500), 73u);
    EXPECT_EQ(mem.counters().rowHits, 0u);
    EXPECT_EQ(mem.counters().activates, 2u);
}

TEST(DramTiming, RefreshBlocksBanksForTRfc)
{
    DramParams p = testParams();
    p.tRefi = 1000;
    p.tRfc = 120;
    MemorySystem mem(p);
    EXPECT_EQ(mem.access(kBank0Row0, false, 0), 73u);
    EXPECT_EQ(mem.counters().refreshes, 0u);
    // Arriving mid-refresh (due at 1000, busy until 1120): the refresh
    // closed the row, and the activate stalls until 1120:
    // 1120 + 30 + 30 + 5 - 1050 = 135.
    EXPECT_EQ(mem.access(kBank0Row0, false, 1050), 135u);
    EXPECT_EQ(mem.counters().refreshes, 1u);
}

TEST(DramTiming, RefreshClosesOpenRows)
{
    DramParams p = testParams();
    p.tRefi = 1000;
    p.tRfc = 120;
    MemorySystem mem(p);
    mem.access(kBank0Row0, false, 0);
    // Well after the refresh completed: no stall, but what would have
    // been a 43-cycle row hit is a full 73-cycle activate because the
    // all-bank refresh closed the row.
    EXPECT_EQ(mem.access(kBank0Row0, false, 1500), 73u);
    EXPECT_EQ(mem.counters().rowHits, 0u);
    EXPECT_EQ(mem.counters().refreshes, 1u);
}

TEST(DramTiming, RefreshDisabledByDefault)
{
    MemorySystem mem(testParams());
    mem.access(kBank0Row0, false, 0);
    for (Cycle t = 1000; t <= 100000; t += 1000)
        mem.access(kBank0Row0, false, t);
    EXPECT_EQ(mem.counters().refreshes, 0u);
    // The row stayed open the whole time.
    EXPECT_EQ(mem.counters().activates, 1u);
}

TEST(DramTiming, PowerDownExitPenalty)
{
    DramParams p = testParams();
    p.powerDown = true;
    p.powerDownAfter = 60;
    p.tPowerDownExit = 12;
    MemorySystem mem(p);
    EXPECT_EQ(mem.access(kBank0Row0, false, 0), 73u);
    // The channel went idle at 73 and dropped CKE at 133.  A row hit
    // at 200 pays the exit latency: tController + exit + CL + tBurst
    // = 8 + 12 + 30 + 5 = 55.
    EXPECT_EQ(mem.access(kBank0Row0, false, 200), 55u);
    EXPECT_EQ(mem.counters().powerDownEntries, 1u);
    EXPECT_EQ(mem.counters().powerDownCycles, 67u); // 200 - 133
}

TEST(DramTiming, PowerDownFractionCoversTrailingIdle)
{
    DramParams p = testParams();
    p.powerDown = true;
    p.powerDownAfter = 60;
    MemorySystem mem(p);
    mem.access(kBank0Row0, false, 0); // busy until 73, CKE drop at 133
    mem.finish(1133);
    EXPECT_EQ(mem.counters().powerDownCycles, 1000u);
    EXPECT_DOUBLE_EQ(mem.poweredDownFraction(2000), 0.5);
}

TEST(DramTiming, PowerDownDisabledCountsNothing)
{
    MemorySystem mem(testParams());
    mem.access(kBank0Row0, false, 0);
    mem.finish(100000);
    EXPECT_EQ(mem.counters().powerDownEntries, 0u);
    EXPECT_EQ(mem.counters().powerDownCycles, 0u);
    EXPECT_DOUBLE_EQ(mem.poweredDownFraction(100000), 0.0);
}

TEST(DramEvents, StalledCoresJumpOverRefreshBoundariesIdentically)
{
    // Every thread is a chain of cold DRAM misses, so the scheduler's
    // clock repeatedly jumps tens of cycles while all cores stall;
    // with tRefi = 50 most jumps cross at least one refresh boundary.
    // The event-driven loop must land on the same cycles and count
    // the same refreshes as the reference scan-every-cycle loop.
    HierarchyParams hp;
    hp.dram.tRefi = 50;
    hp.dram.tRfc = 30;
    WorkloadParams w;
    w.name = "dramchain";
    w.memFrac = 1.0;
    w.hotFrac = 0.0;
    w.streamFrac = 0.0;
    w.alpha = 1.0;
    w.wsBytes = 8 << 20;
    w.barrierEvery = 0;
    System ev(hp, w, 400, 2, 2);
    System ref(hp, w, 400, 2, 2);
    const SimStats a = ev.run();
    const SimStats b = ref.runReference();
    EXPECT_GT(a.dram.refreshes, 0u);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.dram.refreshes, b.dram.refreshes);
    EXPECT_EQ(a.dram.reads, b.dram.reads);
    EXPECT_EQ(a.dram.activates, b.dram.activates);
    EXPECT_EQ(a.dram.rowHits, b.dram.rowHits);
    EXPECT_DOUBLE_EQ(a.avgReadLatency, b.avgReadLatency);
}
