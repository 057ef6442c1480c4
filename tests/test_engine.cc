/**
 * @file
 * Tests for the SolverEngine: parallel/serial determinism across all
 * three cell technologies, stats accounting, equivalence of the
 * streaming fold with the enumerate-then-optimize reference path, and
 * the per-solve bank memo's equality with fresh bank builds.
 */

#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "core/cache_model.hh"
#include "core/cacti.hh"
#include "core/engine.hh"
#include "reference_solve.hh"

namespace {

using namespace cactid;

MemoryConfig
sramCache()
{
    MemoryConfig c;
    c.capacityBytes = 4 << 20;
    c.blockBytes = 64;
    c.associativity = 8;
    c.nBanks = 4;
    c.type = MemoryType::Cache;
    c.featureNm = 32.0;
    return c;
}

MemoryConfig
lpDramCache()
{
    MemoryConfig c = sramCache();
    c.capacityBytes = 16 << 20;
    c.dataCellTech = RamCellTech::LpDram;
    c.tagCellTech = RamCellTech::LpDram;
    c.accessMode = AccessMode::Sequential;
    return c;
}

MemoryConfig
commDramChip()
{
    MemoryConfig c;
    c.capacityBytes = 1024.0 * 1024.0 * 1024.0 / 8.0; // 1 Gb
    c.blockBytes = 8;
    c.type = MemoryType::MainMemoryChip;
    c.nBanks = 8;
    c.featureNm = 78.0;
    c.dataCellTech = RamCellTech::CommDram;
    c.pageBytes = 1024;
    return c;
}

/** Exact (bit-identical) comparison of every rolled-up metric. */
void
expectIdentical(const Solution &a, const Solution &b)
{
    EXPECT_EQ(a.totalArea, b.totalArea);
    EXPECT_EQ(a.bankArea, b.bankArea);
    EXPECT_EQ(a.areaEfficiency, b.areaEfficiency);
    EXPECT_EQ(a.accessTime, b.accessTime);
    EXPECT_EQ(a.randomCycle, b.randomCycle);
    EXPECT_EQ(a.interleaveCycle, b.interleaveCycle);
    EXPECT_EQ(a.readEnergy, b.readEnergy);
    EXPECT_EQ(a.writeEnergy, b.writeEnergy);
    EXPECT_EQ(a.leakage, b.leakage);
    EXPECT_EQ(a.refreshPower, b.refreshPower);
    EXPECT_EQ(a.tRcd, b.tRcd);
    EXPECT_EQ(a.tRc, b.tRc);
    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.data.part.rowsPerSubarray, b.data.part.rowsPerSubarray);
    EXPECT_EQ(a.data.part.colsPerSubarray, b.data.part.colsPerSubarray);
    EXPECT_EQ(a.data.part.blMux, b.data.part.blMux);
    EXPECT_EQ(a.data.part.samMux, b.data.part.samMux);
}

class EngineDeterminism
    : public ::testing::TestWithParam<MemoryConfig>
{
};

TEST_P(EngineDeterminism, ParallelMatchesSerialBitExactly)
{
    const MemoryConfig cfg = GetParam();
    const SolveResult serial = solve(cfg, SolverOptions{1});
    const SolveResult parallel = solve(cfg, SolverOptions{8});

    expectIdentical(serial.best, parallel.best);
    ASSERT_EQ(serial.filtered.size(), parallel.filtered.size());
    for (std::size_t i = 0; i < serial.filtered.size(); ++i)
        expectIdentical(serial.filtered[i], parallel.filtered[i]);
    EXPECT_EQ(serial.stats.partitionsEnumerated,
              parallel.stats.partitionsEnumerated);
    EXPECT_EQ(serial.stats.partitionsInfeasible,
              parallel.stats.partitionsInfeasible);
    EXPECT_EQ(serial.stats.solutionsBuilt, parallel.stats.solutionsBuilt);
    EXPECT_EQ(serial.stats.areaPruned, parallel.stats.areaPruned);
    EXPECT_EQ(serial.stats.timePruned, parallel.stats.timePruned);
}

INSTANTIATE_TEST_SUITE_P(AllTechnologies, EngineDeterminism,
                         ::testing::Values(sramCache(), lpDramCache(),
                                           commDramChip()));

TEST(Engine, MatchesLegacyEnumerateThenOptimize)
{
    for (const MemoryConfig &cfg :
         {sramCache(), lpDramCache(), commDramChip()}) {
        SCOPED_TRACE(cfg.summary());
        const Technology t(cfg.featureNm, cfg.temperatureK);
        const SolveResult legacy = reference::optimize(
            cfg, reference::enumerateSolutions(t, cfg));
        const SolveResult engine = SolverEngine(SolverOptions{4}).run(cfg);
        expectIdentical(legacy.best, engine.best);
        ASSERT_EQ(legacy.filtered.size(), engine.filtered.size());
        for (std::size_t i = 0; i < legacy.filtered.size(); ++i)
            expectIdentical(legacy.filtered[i], engine.filtered[i]);
        // The reference's feasible count is what the fold counted.
        EXPECT_EQ(legacy.stats.solutionsBuilt,
                  engine.stats.solutionsBuilt);
        EXPECT_EQ(legacy.stats.areaPruned, engine.stats.areaPruned);
        EXPECT_EQ(legacy.stats.timePruned, engine.stats.timePruned);
    }
}

TEST(Engine, StatsAccountingIdentityHolds)
{
    for (const MemoryConfig &cfg :
         {sramCache(), lpDramCache(), commDramChip()}) {
        EngineStats st;
        const SolveResult res = solve(cfg, SolverOptions{2}, &st);
        EXPECT_EQ(st.partitionsEnumerated,
                  st.partitionsInfeasible + st.solutionsBuilt);
        EXPECT_EQ(st.solutionsBuilt,
                  st.areaPruned + st.timePruned + res.filtered.size());
        EXPECT_GT(st.partitionsEnumerated, 0u);
        EXPECT_GT(st.totalSeconds, 0.0);
        EXPECT_GE(st.totalSeconds,
                  st.evaluateSeconds); // stages nest inside the total
        EXPECT_EQ(st.jobsUsed, 2);
        EXPECT_LE(st.peakLiveSolutions, st.solutionsBuilt);
        // The out-param copy mirrors the embedded stats.
        EXPECT_EQ(st.partitionsEnumerated,
                  res.stats.partitionsEnumerated);
    }
}

TEST(Engine, ZeroJobsResolvesToHardwareConcurrency)
{
    EXPECT_GE(SolverEngine::resolveJobs(0), 1);
    EXPECT_EQ(SolverEngine::resolveJobs(3), 3);
    EngineStats st;
    solve(sramCache(), SolverOptions{0}, &st);
    EXPECT_EQ(st.jobsUsed, SolverEngine::resolveJobs(0));
}

TEST(Engine, MoreJobsThanCandidatesStillWorks)
{
    MemoryConfig c = sramCache();
    c.capacityBytes = 64 << 10; // tiny space
    c.nBanks = 1;
    const SolveResult serial = solve(c, SolverOptions{1});
    const SolveResult wide = solve(c, SolverOptions{64});
    expectIdentical(serial.best, wide.best);
    EXPECT_EQ(serial.filtered.size(), wide.filtered.size());
}

TEST(Engine, StatsReportMentionsEveryStage)
{
    EngineStats st;
    solve(sramCache(), SolverOptions{2}, &st);
    const std::string r = st.report();
    EXPECT_NE(r.find("enumerated"), std::string::npos);
    EXPECT_NE(r.find("infeasible"), std::string::npos);
    EXPECT_NE(r.find("max-area"), std::string::npos);
    EXPECT_NE(r.find("max-acctime"), std::string::npos);
    EXPECT_NE(r.find("evaluate"), std::string::npos);
    EXPECT_NE(r.find("total"), std::string::npos);
}

TEST(Engine, InfeasibleConfigThrows)
{
    MemoryConfig c = sramCache();
    c.capacityBytes = 0.0; // invalid: rejected by validate()
    EXPECT_THROW(SolverEngine().run(c), std::invalid_argument);
}

TEST(Engine, NoFeasibleOrganizationThrowsInfeasibleConfig)
{
    // A valid config no organization can build: the tag path (16 ways
    // of 64 B over 8 banks in 1 KB) and the data path (1 KB over 8
    // banks) each fail.  The tools exit 2 on the dedicated type; older
    // callers still catch it as std::runtime_error.
    MemoryConfig tag = sramCache();
    tag.capacityBytes = 1 << 10;
    tag.associativity = 16;
    tag.nBanks = 8;
    MemoryConfig data = tag;
    data.type = MemoryType::PlainRam;
    for (const MemoryConfig &c : {tag, data}) {
        c.validate();
        EXPECT_THROW(SolverEngine().run(c), InfeasibleConfig);
        EXPECT_THROW(SolverEngine().run(c), std::runtime_error);
        EXPECT_THROW(SolverEngine().solveBatch({sramCache(), c}),
                     InfeasibleConfig);
        try {
            SolverEngine().run(c);
        } catch (const InfeasibleConfig &e) {
            EXPECT_NE(std::string(e.what()).find(c.summary()),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_THROW(reference::optimize(tag, {}), InfeasibleConfig);
}

// --- The per-solve bank memo -----------------------------------------

/**
 * The memo-equivalence configs: SRAM, LP-DRAM and COMM-DRAM as a
 * cache (whose tags use the same cell), a RAM and a main-memory chip,
 * plus a 2-port SRAM and a derated H-tree.  An SRAM chip is no valid
 * config, but its bank spec still builds.
 */
std::vector<MemoryConfig>
memoConfigs()
{
    std::vector<MemoryConfig> out;
    for (const RamCellTech tech : {RamCellTech::Sram, RamCellTech::LpDram,
                                   RamCellTech::CommDram}) {
        MemoryConfig cache;
        cache.capacityBytes = 1 << 20;
        cache.blockBytes = 64;
        cache.associativity = 8;
        cache.nBanks = 2;
        cache.type = MemoryType::Cache;
        cache.featureNm = 45.0;
        cache.dataCellTech = tech;
        cache.tagCellTech = tech;
        out.push_back(cache);

        MemoryConfig ram = cache;
        ram.type = MemoryType::PlainRam;
        ram.capacityBytes = 256 << 10;
        out.push_back(ram);

        MemoryConfig chip = commDramChip();
        chip.dataCellTech = tech;
        out.push_back(chip);
    }
    MemoryConfig ported = sramCache();
    ported.capacityBytes = 256 << 10;
    ported.ports = 2;
    out.push_back(ported);
    MemoryConfig derated = sramCache();
    derated.type = MemoryType::PlainRam;
    derated.repeaterDerate = 1.5;
    out.push_back(derated);
    return out;
}

/**
 * Build every partition through one shared builder, whose memo holds
 * every earlier partition's parts, and compare each bank with a fresh
 * buildBank field for field.
 */
std::size_t
expectSharedBuilderMatchesFresh(const Technology &t, const BankSpec &spec,
                                const std::function<void(
                                    const PartitionVisitor &)> &each)
{
    BankBuilder shared(t, spec);
    std::size_t n = 0;
    each([&](const Partition &p) {
        ++n;
        EXPECT_TRUE(shared.build(p) == buildBank(t, spec, p))
            << p.rowsPerSubarray << "x" << p.colsPerSubarray << " blmux "
            << p.blMux << " sammux " << p.samMux;
    });
    return n;
}

TEST(BankMemo, SharedBuilderMatchesFreshBuildsOnEveryPartition)
{
    for (const MemoryConfig &cfg : memoConfigs()) {
        SCOPED_TRACE(cfg.summary() + " ports " + std::to_string(cfg.ports) +
                     " derate " + std::to_string(cfg.repeaterDerate));
        const Technology t(cfg.featureNm, cfg.temperatureK);
        const BankSpec data = makeBankSpec(cfg);
        EXPECT_GT(expectSharedBuilderMatchesFresh(
                      t, data,
                      [&](const PartitionVisitor &visit) {
                          forEachPartition(data.sizeBits, data.outputBits,
                                           data.tech, PartitionLimits{},
                                           visit);
                      }),
                  0u);
        if (cfg.type != MemoryType::Cache)
            continue;
        // The tag path's own partitions: columns are whole sets of
        // entries, so rows x cols pairs are not powers of two.
        EXPECT_GT(expectSharedBuilderMatchesFresh(
                      t, tagBankSpec(cfg),
                      [&](const PartitionVisitor &visit) {
                          forEachTagPartition(cfg, visit);
                      }),
                  0u);
    }
}

TEST(BankMemo, EvaluatorBanksMatchFreshBuilds)
{
    for (const MemoryConfig &cfg : memoConfigs()) {
        if (cfg.type == MemoryType::MainMemoryChip &&
            !isDram(cfg.dataCellTech))
            continue; // not a valid config
        SCOPED_TRACE(cfg.summary());
        const Technology t(cfg.featureNm, cfg.temperatureK);
        CandidateEvaluator eval(t, cfg);
        std::size_t feasible = 0;
        forEachPartition(eval.spec().sizeBits, eval.spec().outputBits,
                         eval.spec().tech, PartitionLimits{},
                         [&](const Partition &p) {
                             const std::optional<Solution> s = eval(p);
                             const BankMetrics fresh =
                                 buildBank(t, eval.spec(), p);
                             ASSERT_EQ(s.has_value(), fresh.feasible);
                             if (s) {
                                 ++feasible;
                                 EXPECT_TRUE(s->data == fresh);
                             }
                         });
        EXPECT_GT(feasible, 0u);
    }
}

} // namespace
