/**
 * @file
 * EpochRecorder edge cases: zero-length runs, runs shorter than one
 * epoch interval, the final partial-epoch flush, and duplicate closes.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/cpu/system.hh"
#include "sim/metrics.hh"
#include "sim/study.hh"

using namespace archsim;

namespace {

/** One Study for the whole file: its CACTI solves dominate setup. */
class MetricsTest : public ::testing::Test
{
  public:
    static void SetUpTestSuite() { study_ = new Study(); }
    static void TearDownTestSuite()
    {
        delete study_;
        study_ = nullptr;
    }

    static Study *study_;
};

Study *MetricsTest::study_ = nullptr;

} // namespace

TEST(EpochRecorder, RejectsZeroInterval)
{
    EXPECT_THROW(EpochRecorder(0), std::invalid_argument);
}

TEST(EpochRecorder, ZeroLengthCloseProducesNoSample)
{
    EpochRecorder rec(100);
    rec.start(HierarchyParams{});
    // A run that ends at cycle 0 closes its "final" epoch at the
    // start cycle; nothing must be recorded.
    rec.close(0, 0, HierCounters{}, nullptr, DramCounters{});
    EXPECT_TRUE(rec.samples().empty());
}

TEST(EpochRecorder, DuplicateCloseIsSkipped)
{
    EpochRecorder rec(100);
    rec.start(HierarchyParams{});

    HierCounters h;
    h.l2Reads = 7;
    rec.close(50, 10, h, nullptr, DramCounters{});
    ASSERT_EQ(rec.samples().size(), 1u);

    // Closing again at the same cycle (the System does this when the
    // last epoch boundary coincides with the end of the run) must not
    // append an empty sample.
    rec.close(50, 10, h, nullptr, DramCounters{});
    ASSERT_EQ(rec.samples().size(), 1u);
    EXPECT_EQ(rec.samples()[0].beginCycle, 0u);
    EXPECT_EQ(rec.samples()[0].endCycle, 50u);
    EXPECT_EQ(rec.samples()[0].instructions, 10u);
    EXPECT_EQ(rec.samples()[0].l2Reads, 7u);
}

TEST(EpochRecorder, SamplesAreDeltasNotTotals)
{
    EpochRecorder rec(100);
    rec.start(HierarchyParams{});

    HierCounters h;
    h.l1Reads = 100;
    rec.close(100, 40, h, nullptr, DramCounters{});
    h.l1Reads = 250;
    rec.close(200, 90, h, nullptr, DramCounters{});

    ASSERT_EQ(rec.samples().size(), 2u);
    EXPECT_EQ(rec.samples()[0].l1Reads, 100u);
    EXPECT_EQ(rec.samples()[0].instructions, 40u);
    EXPECT_EQ(rec.samples()[1].l1Reads, 150u);
    EXPECT_EQ(rec.samples()[1].instructions, 50u);
}

TEST_F(MetricsTest, RunShorterThanIntervalYieldsOneFullSpanSample)
{
    // With an interval far beyond the run length no boundary is ever
    // crossed; the end-of-run flush must still produce exactly one
    // sample spanning the whole run.
    const HierarchyParams hp = study_->hierarchyFor("nol3");
    System sys(hp, study_->scaledWorkload(npbWorkload("ft.B")), 500);
    EpochRecorder rec(1u << 30);
    const SimStats s = sys.run(&rec);

    ASSERT_EQ(rec.samples().size(), 1u);
    const EpochSample &e = rec.samples()[0];
    EXPECT_EQ(e.beginCycle, 0u);
    EXPECT_EQ(e.endCycle, s.cycles);
    EXPECT_EQ(e.instructions, s.instructions);
}

TEST_F(MetricsTest, FinalPartialEpochIsFlushedAndSamplesTile)
{
    const HierarchyParams hp = study_->hierarchyFor("nol3");
    System sys(hp, study_->scaledWorkload(npbWorkload("ft.B")), 3000);
    const Cycle interval = 2000;
    EpochRecorder rec(interval);
    const SimStats s = sys.run(&rec);

    ASSERT_GE(rec.samples().size(), 2u);
    // The samples tile [0, cycles) contiguously; every epoch but the
    // final flush spans at least the interval.
    Cycle prev_end = 0;
    std::uint64_t instr = 0;
    for (std::size_t i = 0; i < rec.samples().size(); ++i) {
        const EpochSample &e = rec.samples()[i];
        EXPECT_EQ(e.index, int(i));
        EXPECT_EQ(e.beginCycle, prev_end);
        EXPECT_GT(e.endCycle, e.beginCycle);
        if (i + 1 < rec.samples().size()) {
            EXPECT_GE(e.cycles(), interval);
        }
        prev_end = e.endCycle;
        instr += e.instructions;
    }
    EXPECT_EQ(prev_end, s.cycles);
    EXPECT_EQ(instr, s.instructions);
}

namespace {

/**
 * One core, one thread, every instruction a cold DRAM miss: the
 * scheduler's clock advances almost exclusively by multi-cycle jumps,
 * so with a small interval nearly every epoch boundary falls inside a
 * jump rather than on a visited cycle.
 */
System
stallSkipper()
{
    WorkloadParams w;
    w.name = "stallskip";
    w.memFrac = 1.0;
    w.hotFrac = 0.0;
    w.streamFrac = 0.0;
    w.alpha = 1.0;
    w.wsBytes = 4 << 20;
    w.barrierEvery = 0;
    return System(HierarchyParams{}, w, 200, 1, 1);
}

} // namespace

TEST(EpochRecorder, BoundaryInsideASkipClosesAtLandingCycleInGolden)
{
    // The pinned goldens record this: a boundary crossed mid-jump
    // closes at the landing cycle, exactly as the reference loop
    // does.  The two sample streams must be identical.
    const Cycle interval = 256;
    System ev = stallSkipper();
    System ref = stallSkipper();
    EpochRecorder ra(interval);
    EpochRecorder rb(interval);
    const SimStats a = ev.run(&ra);
    const SimStats b = ref.runReference(&rb);
    EXPECT_EQ(a.cycles, b.cycles);
    ASSERT_EQ(ra.samples().size(), rb.samples().size());
    ASSERT_GE(ra.samples().size(), 10u);
    bool off_boundary = false;
    for (std::size_t i = 0; i < ra.samples().size(); ++i) {
        const EpochSample &ea = ra.samples()[i];
        const EpochSample &eb = rb.samples()[i];
        EXPECT_EQ(ea.beginCycle, eb.beginCycle) << "epoch " << i;
        EXPECT_EQ(ea.endCycle, eb.endCycle) << "epoch " << i;
        EXPECT_EQ(ea.instructions, eb.instructions) << "epoch " << i;
        EXPECT_EQ(ea.dramReads, eb.dramReads) << "epoch " << i;
        off_boundary |= ea.endCycle % interval != 0;
    }
    // At least one boundary actually fell inside a jump (otherwise
    // this test exercises nothing).
    EXPECT_TRUE(off_boundary);
}
