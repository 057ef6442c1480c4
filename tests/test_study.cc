/**
 * @file
 * Integration tests for the LLC study assembly: CACTI-D projections,
 * configuration plumbing, and the paper's qualitative orderings.
 */

#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/solve_cache.hh"
#include "sim/study.hh"

namespace {

using namespace archsim;

/** Sets ARCHSIM_INSTR for one scope, then restores what was there. */
class InstrEnv
{
  public:
    explicit InstrEnv(const char *value)
    {
        if (const char *old = std::getenv("ARCHSIM_INSTR"))
            old_ = old;
        ::setenv("ARCHSIM_INSTR", value, 1);
    }

    ~InstrEnv()
    {
        if (old_)
            ::setenv("ARCHSIM_INSTR", old_->c_str(), 1);
        else
            ::unsetenv("ARCHSIM_INSTR");
    }

  private:
    std::optional<std::string> old_;
};

TEST(StudyDefaults, InstrEnvMustBeAWholeCount)
{
    {
        const InstrEnv env("5000");
        EXPECT_EQ(defaultInstrPerThread(), 5000u);
    }
    // A budget is one whole count >= 1: no partial token, sign, zero
    // or empty value may become a 0-, 12- or 2^64-5-instruction sweep.
    for (const char *bad : {"abc", "12x", "-5", "0", "", " 7", "1e3",
                            "18446744073709551616"}) {
        const InstrEnv env(bad);
        try {
            const std::uint64_t n = defaultInstrPerThread();
            ADD_FAILURE() << "ARCHSIM_INSTR=" << bad << " gave " << n;
        } catch (const std::invalid_argument &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("ARCHSIM_INSTR"), std::string::npos) << msg;
            EXPECT_NE(msg.find(std::string("(got ") + bad + ")"),
                      std::string::npos)
                << msg;
        }
    }
}

/** One Study shared by all tests (construction runs many solves). */
class StudyTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        study_ = new Study();
    }

    static void
    TearDownTestSuite()
    {
        delete study_;
        study_ = nullptr;
    }

    static Study *study_;
};

Study *StudyTest::study_ = nullptr;

TEST_F(StudyTest, SixConfigurations)
{
    const auto &names = Study::configNames();
    ASSERT_EQ(names.size(), 6u);
    EXPECT_EQ(names.front(), "nol3");
    EXPECT_EQ(names.back(), "cm_dram_c");
}

TEST_F(StudyTest, EightWorkloads)
{
    EXPECT_EQ(study_->workloads().size(), 8u);
}

TEST_F(StudyTest, UnknownL3Throws)
{
    EXPECT_THROW(study_->l3("nol3"), std::invalid_argument);
    EXPECT_THROW(study_->l3("bogus"), std::invalid_argument);
}

TEST_F(StudyTest, QuantizationRespectsClockDividers)
{
    const std::vector<std::string> drams = {
        "sram", "lp_dram_ed", "lp_dram_c", "cm_dram_ed", "cm_dram_c"};
    for (const std::string &cfg : drams) {
        const Projection &p = study_->l3(cfg);
        EXPECT_GE(p.clockDiv, 1);
        EXPECT_EQ(p.randomCycles % p.clockDiv, 0u) << cfg;
        EXPECT_EQ(p.interleaveCycles % p.clockDiv, 0u) << cfg;
        EXPECT_GE(p.accessCycles, p.interleaveCycles);
    }
}

TEST_F(StudyTest, CommDramRunsSlowerClock)
{
    EXPECT_GT(study_->l3("cm_dram_c").clockDiv,
              study_->l3("sram").clockDiv);
}

TEST_F(StudyTest, PaperLeakageOrdering)
{
    // Table 3: LP-DRAM L3 leakage below SRAM despite sleep
    // transistors; COMM-DRAM negligible.
    const double sram = study_->l3("sram").sol.leakage;
    const double lp = study_->l3("lp_dram_ed").sol.leakage;
    const double cm = study_->l3("cm_dram_ed").sol.leakage;
    EXPECT_LT(lp, sram);
    EXPECT_LT(cm, lp / 20.0);
}

TEST_F(StudyTest, RefreshOrdering)
{
    // LP-DRAM refreshes every 0.12 ms, COMM-DRAM every 64 ms.
    EXPECT_GT(study_->l3("lp_dram_c").sol.refreshPower,
              study_->l3("cm_dram_c").sol.refreshPower);
    EXPECT_DOUBLE_EQ(study_->l3("sram").sol.refreshPower, 0.0);
}

TEST_F(StudyTest, AccessTimeOrdering)
{
    // Table 3: COMM-DRAM access ~3x LP-DRAM; both well below main
    // memory.
    const auto sram = study_->l3("sram").accessCycles;
    const auto lp = study_->l3("lp_dram_ed").accessCycles;
    const auto cm = study_->l3("cm_dram_ed").accessCycles;
    EXPECT_GE(cm, lp);
    EXPECT_GE(lp, sram);
    const double mm_cycles =
        (study_->mainMemoryChip().tRcd +
         study_->mainMemoryChip().tCas) * 2e9;
    EXPECT_GT(mm_cycles, double(cm));
}

TEST_F(StudyTest, MainMemoryChipPlausible)
{
    const cactid::Solution &mm = study_->mainMemoryChip();
    EXPECT_GT(mm.tRc, 30e-9);
    EXPECT_LT(mm.tRc, 100e-9);
    EXPECT_GT(mm.areaEfficiency, 0.35);
    EXPECT_GT(mm.refreshPower, 0.0);
}

TEST_F(StudyTest, HierarchyForNol3HasNoLlc)
{
    EXPECT_FALSE(study_->hierarchyFor("nol3").llc.has_value());
    EXPECT_TRUE(study_->hierarchyFor("sram").llc.has_value());
}

TEST_F(StudyTest, HierarchyCapacitiesScaled)
{
    const HierarchyParams hp = study_->hierarchyFor("cm_dram_c");
    // 192MB / 16 = 12MB simulated.
    EXPECT_EQ(hp.llc->capacityBytes, (192ull << 20) / 16);
    EXPECT_EQ(hp.llc->assoc, 24);
    EXPECT_EQ(hp.l2Bytes, (1ull << 20) / 16);
}

TEST_F(StudyTest, PowerParamsUseUnscaledEnergies)
{
    const PowerParams p = study_->powerFor("sram");
    EXPECT_NEAR(p.l3.leakage, study_->l3("sram").sol.leakage, 1e-12);
    EXPECT_GT(p.memStandbyW, 0.5); // 16 chips
    EXPECT_GT(p.eActivate, 8.0 * 1e-9 * 0.5);
    const PowerParams n = study_->powerFor("nol3");
    EXPECT_DOUBLE_EQ(n.l3.leakage, 0.0);
    EXPECT_DOUBLE_EQ(n.xbarLeakage, 0.0);
}

TEST_F(StudyTest, ShortSimulationRuns)
{
    const SimStats s =
        study_->run("sram", npbWorkload("ua.C"), 5000);
    EXPECT_EQ(s.instructions, 5000u * 32u);
    EXPECT_EQ(s.config, "sram");
    EXPECT_GT(s.ipc, 0.0);
}

TEST_F(StudyTest, L3CapturesFittingWorkload)
{
    // ft.B's working set fits the COMM-DRAM L3s: the L3 must filter a
    // large share of the memory traffic relative to no-L3.
    const SimStats no = study_->run("nol3", npbWorkload("ft.B"), 40000);
    const SimStats cm =
        study_->run("cm_dram_c", npbWorkload("ft.B"), 40000);
    EXPECT_LT(cm.dram.reads + cm.dram.writes,
              (no.dram.reads + no.dram.writes) / 2);
    EXPECT_LT(cm.cycles, no.cycles);
}

TEST_F(StudyTest, CgInsensitiveToL3)
{
    const SimStats no = study_->run("nol3", npbWorkload("cg.C"), 30000);
    const SimStats cm =
        study_->run("cm_dram_c", npbWorkload("cg.C"), 30000);
    const double ratio = double(cm.cycles) / double(no.cycles);
    EXPECT_GT(ratio, 0.85);
    EXPECT_LT(ratio, 1.3);
}

TEST_F(StudyTest, BankStandbyPowerMatchesSolution)
{
    const double sram = study_->l3BankStandbyPower("sram");
    EXPECT_NEAR(sram, study_->l3("sram").sol.leakage / 8.0, 1e-9);
    EXPECT_DOUBLE_EQ(study_->l3BankStandbyPower("nol3"), 0.0);
}

TEST_F(StudyTest, CrossbarMetricsPositive)
{
    EXPECT_GT(study_->xbarEnergyPerTransfer(), 0.0);
    EXPECT_GT(study_->xbarLeakage(), 0.0);
    EXPECT_GE(study_->xbarCycles(), 1u);
}

TEST_F(StudyTest, Table3Prints)
{
    std::ostringstream os;
    study_->printTable3(os);
    EXPECT_NE(os.str().find("Table 3"), std::string::npos);
    EXPECT_NE(os.str().find("mm-chip"), std::string::npos);
}

/** True when all of @p s is one number. */
bool
isNumber(const std::string &s)
{
    char *end = nullptr;
    std::strtod(s.c_str(), &end);
    return !s.empty() && end == s.c_str() + s.size();
}

TEST_F(StudyTest, Table3CellsStaySeparate)
{
    // Each metric row is its 22-column name, then eight "model|paper"
    // cells; a 16-character cell once ran into the next one.
    std::ostringstream os;
    study_->printTable3(os);
    std::istringstream table(os.str());
    std::string line;
    std::getline(table, line); // banner
    std::getline(table, line); // column names
    for (int row = 0; row < 7; ++row) {
        ASSERT_TRUE(std::getline(table, line));
        ASSERT_GT(line.size(), 22u) << line;
        std::istringstream cells(line.substr(22));
        std::vector<std::string> tokens;
        for (std::string t; cells >> t;)
            tokens.push_back(t);
        ASSERT_EQ(tokens.size(), 8u) << line;
        for (const std::string &t : tokens) {
            const std::size_t bar = t.find('|');
            ASSERT_NE(bar, std::string::npos) << line;
            EXPECT_TRUE(isNumber(t.substr(0, bar))) << t;
            EXPECT_TRUE(isNumber(t.substr(bar + 1))) << t;
        }
    }
}

/** What a Study keeps of one solve, compared exactly. */
void
expectSameSolution(const cactid::Solution &a, const cactid::Solution &b)
{
    EXPECT_TRUE(a.data == b.data);
    EXPECT_TRUE(a.tag == b.tag);
    EXPECT_EQ(a.accessTime, b.accessTime);
    EXPECT_EQ(a.randomCycle, b.randomCycle);
    EXPECT_EQ(a.interleaveCycle, b.interleaveCycle);
    EXPECT_EQ(a.totalArea, b.totalArea);
    EXPECT_EQ(a.readEnergy, b.readEnergy);
    EXPECT_EQ(a.leakage, b.leakage);
    EXPECT_EQ(a.refreshPower, b.refreshPower);
    EXPECT_EQ(a.tRc, b.tRc);
    EXPECT_EQ(a.objective, b.objective);
}

void
expectSameProjection(const Projection &a, const Projection &b)
{
    SCOPED_TRACE(a.name);
    expectSameSolution(a.sol, b.sol);
    EXPECT_EQ(a.clockDiv, b.clockDiv);
    EXPECT_EQ(a.accessCycles, b.accessCycles);
    EXPECT_EQ(a.randomCycles, b.randomCycles);
    EXPECT_EQ(a.interleaveCycles, b.interleaveCycles);
}

TEST(StudySolveCache, SecondStudyIsServedFromTheSharedCache)
{
    // The cache reaches the eight LLC-study solves through the
    // constructor's SolverOptions, not through any process state.
    cactid::SolveCache cache;
    cactid::SolverOptions solver;
    solver.cache = &cache;
    const Study first(solver);
    EXPECT_EQ(cache.counters().misses, 8u);
    EXPECT_EQ(cache.counters().hits, 0u);
    const Study second(solver);
    EXPECT_EQ(cache.counters().misses, 8u);
    EXPECT_EQ(cache.counters().hits, 8u);

    expectSameProjection(first.l1(), second.l1());
    expectSameProjection(first.l2(), second.l2());
    for (const std::string &config : Study::configNames()) {
        if (config != "nol3")
            expectSameProjection(first.l3(config), second.l3(config));
    }
    expectSameSolution(first.mainMemoryChip(), second.mainMemoryChip());
}

} // namespace
