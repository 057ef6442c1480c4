/**
 * @file
 * Tests for the power roll-up and the thermal grid solver.
 */

#include <cmath>
#include <utility>

#include <gtest/gtest.h>

#include "sim/power/power.hh"
#include "sim/thermal/thermal.hh"

namespace {

using namespace archsim;

SimStats
statsFixture()
{
    SimStats s;
    s.cycles = 2'000'000'000; // exactly one second at 2 GHz
    s.hier.l1Reads = 1'000'000'000;
    s.hier.l1Writes = 500'000'000;
    s.hier.l2Reads = 100'000'000;
    s.hier.l2Writes = 50'000'000;
    s.hier.xbarTransfers = 20'000'000;
    s.llcReads = 10'000'000;
    s.llcWrites = 5'000'000;
    s.dram.activates = 1'000'000;
    s.dram.reads = 800'000;
    s.dram.writes = 200'000;
    s.dram.busBytes = 64'000'000;
    return s;
}

PowerParams
paramsFixture()
{
    PowerParams p;
    p.l1 = {0.1e-9, 0.1e-9, 0.1, 0.0};
    p.l2 = {0.3e-9, 0.3e-9, 0.2, 0.0};
    p.l3 = {0.5e-9, 0.6e-9, 2.0, 0.05};
    p.xbarEnergyPerTransfer = 1e-9;
    p.xbarLeakage = 0.05;
    p.eActivate = 20e-9;
    p.eRead = 12e-9;
    p.eWrite = 13e-9;
    p.memStandbyW = 1.4;
    p.memRefreshW = 0.12;
    return p;
}

TEST(Power, LeakagePassesThrough)
{
    const PowerBreakdown b =
        computePower(paramsFixture(), statsFixture());
    EXPECT_DOUBLE_EQ(b.l1Leak, 0.1);
    EXPECT_DOUBLE_EQ(b.l2Leak, 0.2);
    EXPECT_DOUBLE_EQ(b.l3Leak, 2.0);
    EXPECT_DOUBLE_EQ(b.l3Refresh, 0.05);
    EXPECT_DOUBLE_EQ(b.mainStandby, 1.4);
    EXPECT_DOUBLE_EQ(b.mainRefresh, 0.12);
}

TEST(Power, DynamicIsEnergyOverTime)
{
    const PowerBreakdown b =
        computePower(paramsFixture(), statsFixture());
    // 1.5e9 L1 accesses x 0.1 nJ over 1 s = 0.15 W.
    EXPECT_NEAR(b.l1Dyn, 0.15, 1e-9);
    EXPECT_NEAR(b.xbarDyn, 0.02, 1e-9);
    // Main dyn: 1e6*20nJ + 0.8e6*12nJ + 0.2e6*13nJ = 0.0322 W.
    EXPECT_NEAR(b.mainDyn, 0.0322, 1e-6);
}

TEST(Power, BusPowerAtTwoPjPerBit)
{
    const PowerBreakdown b =
        computePower(paramsFixture(), statsFixture());
    EXPECT_NEAR(b.bus, 64e6 * 8 * 1.15 * 2e-12, 1e-9);
}

TEST(Power, HierarchyTotalIsSumOfParts)
{
    const PowerBreakdown b =
        computePower(paramsFixture(), statsFixture());
    const double sum = b.l1Leak + b.l1Dyn + b.l2Leak + b.l2Dyn +
                       b.xbarLeak + b.xbarDyn + b.l3Leak + b.l3Dyn +
                       b.l3Refresh + b.mainDyn + b.mainStandby +
                       b.mainRefresh + b.bus;
    EXPECT_NEAR(b.memoryHierarchy(), sum, 1e-12);
}

TEST(Power, EdpQuadraticInTime)
{
    PowerParams p = paramsFixture();
    SimStats s = statsFixture();
    const PowerBreakdown fast = computePower(p, s);
    s.cycles *= 2;
    const PowerBreakdown slow = computePower(p, s);
    // Same leakage-dominated power, double the time: EDP scales ~4x.
    EXPECT_GT(slow.edp(), 3.0 * fast.edp());
}

TEST(Power, ZeroCyclesYieldsZero)
{
    SimStats s;
    const PowerBreakdown b = computePower(paramsFixture(), s);
    EXPECT_DOUBLE_EQ(b.memoryHierarchy(), 0.0);
}

TEST(Power, SystemAddsCore)
{
    const PowerBreakdown b =
        computePower(paramsFixture(), statsFixture());
    EXPECT_NEAR(b.system(), b.corePower + b.memoryHierarchy(), 1e-12);
    EXPECT_DOUBLE_EQ(b.corePower, 22.3);
}

// --- Thermal ----------------------------------------------------------

TEST(Thermal, TileMapPreservesTotalPower)
{
    const std::vector<double> tiles(8, 2.0);
    const auto map = tileMap(16, tiles);
    double sum = 0.0;
    for (double p : map)
        sum += p;
    EXPECT_NEAR(sum, 16.0, 1e-9);
}

TEST(Thermal, TileMapRejectsWrongCount)
{
    EXPECT_THROW(tileMap(16, std::vector<double>(7, 1.0)),
                 std::invalid_argument);
}

TEST(Thermal, NoPowerMeansAmbient)
{
    ThermalParams p;
    const std::vector<double> zero(p.grid * p.grid, 0.0);
    const ThermalResult r = solveStack(p, zero, zero);
    EXPECT_NEAR(r.maxTemp, p.ambient, 0.01);
}

TEST(Thermal, MorePowerIsHotter)
{
    ThermalParams p;
    const auto low = tileMap(p.grid, std::vector<double>(8, 1.0));
    const auto high = tileMap(p.grid, std::vector<double>(8, 3.0));
    const std::vector<double> zero(p.grid * p.grid, 0.0);
    const ThermalResult a = solveStack(p, low, zero);
    const ThermalResult b = solveStack(p, high, zero);
    EXPECT_GT(b.maxTemp, a.maxTemp + 1.0);
}

TEST(Thermal, BottomDieHotterThanTopUnderBottomPower)
{
    // The heat sink sits on the top die, so a powered bottom die runs
    // hotter than the top die above it.
    ThermalParams p;
    const auto power = tileMap(p.grid, std::vector<double>(8, 2.5));
    const std::vector<double> zero(p.grid * p.grid, 0.0);
    const ThermalResult r = solveStack(p, power, zero);
    EXPECT_GT(r.maxTempBottomDie, r.maxTempTopDie);
}

TEST(Thermal, HotSpotSpreadsButPersists)
{
    ThermalParams p;
    std::vector<double> tiles(8, 0.1);
    tiles[0] = 5.0; // one hot bank
    const auto uneven = tileMap(p.grid, tiles);
    const auto even =
        tileMap(p.grid, std::vector<double>(8, 5.8 / 8.0));
    const std::vector<double> zero(p.grid * p.grid, 0.0);
    const ThermalResult hot = solveStack(p, zero, uneven);
    const ThermalResult flat = solveStack(p, zero, even);
    EXPECT_GT(hot.maxTemp, flat.maxTemp);
}

TEST(Thermal, PowerMapSizeValidated)
{
    ThermalParams p;
    const std::vector<double> wrong(10, 0.0);
    const std::vector<double> right(p.grid * p.grid, 0.0);
    EXPECT_THROW(solveStack(p, wrong, right), std::invalid_argument);
}

TEST(Thermal, StudyScaleDifferenceIsSmall)
{
    // The paper's headline: < 1.5 K between LLC technologies.  An SRAM
    // L3 adds ~3.4 W over a COMM-DRAM L3's ~0 W.
    ThermalParams p;
    const auto core = tileMap(p.grid, std::vector<double>(8, 22.3 / 8));
    const auto sram = tileMap(p.grid, std::vector<double>(8, 0.43));
    const auto comm = tileMap(p.grid, std::vector<double>(8, 0.02));
    const double d = solveStack(p, core, sram).maxTemp -
                     solveStack(p, core, comm).maxTemp;
    EXPECT_GT(d, 0.0);
    EXPECT_LT(d, 2.5);
}

// --- Thermal: the direct solve against independent oracles -----------

/** One cell's conductances (W/K), as the model defines them. */
struct CellConductance {
    double lateral, bond, sink;
};

CellConductance
conductances(const ThermalParams &p)
{
    const double edge = p.dieEdge / p.grid;
    const double area = edge * edge;
    return {p.kSilicon * p.dieThickness,
            p.kBond * area / p.bondThickness, area / p.rSinkPerArea};
}

/**
 * The study stack in closed form.  Eight equal tiles on each die make
 * both power maps uniform, so no heat flows sideways: each core cell's
 * P0 crosses the bond, and P0 plus the bank cell's P1 leave through the
 * sink.
 */
ThermalResult
closedFormStudyStack(const ThermalParams &p, double core_die_w,
                     double l3_bank_w)
{
    const CellConductance g = conductances(p);
    const double cells = double(p.grid) * p.grid;
    const double p0 = core_die_w / cells;
    const double p1 = 8.0 * l3_bank_w / cells;
    ThermalResult r;
    r.maxTempTopDie = p.ambient + (p0 + p1) / g.sink;
    r.maxTempBottomDie = r.maxTempTopDie + p0 / g.bond;
    r.maxTemp = std::max(r.maxTempTopDie, r.maxTempBottomDie);
    return r;
}

void
expectClose(const ThermalResult &got, const ThermalResult &want,
            double tol)
{
    EXPECT_NEAR(got.maxTemp, want.maxTemp, tol);
    EXPECT_NEAR(got.maxTempTopDie, want.maxTempTopDie, tol);
    EXPECT_NEAR(got.maxTempBottomDie, want.maxTempBottomDie, tol);
}

using PowerMaps = std::pair<std::vector<double>, std::vector<double>>;

/**
 * Reference temperatures (the bottom die's map, then the top die's) of
 * every map pair, by dense Gaussian elimination with partial pivoting
 * over the resistance network numbered die by die.  Shares nothing
 * with the solver but the network's definition.
 */
std::vector<std::vector<double>>
denseReference(const ThermalParams &p, const std::vector<PowerMaps> &maps)
{
    const int n = p.grid;
    const std::size_t cells = std::size_t(n) * n;
    const std::size_t dim = 2 * cells;
    const std::size_t rhs = maps.size();
    const CellConductance g = conductances(p);
    // Row i: dim coefficients, then one column per map pair.
    const std::size_t width = dim + rhs;
    std::vector<double> a(dim * width, 0.0);
    auto link = [&](std::size_t i, std::size_t j, double gij) {
        a[i * width + i] += gij;
        a[i * width + j] -= gij;
    };
    for (int layer = 0; layer < 2; ++layer) {
        for (int y = 0; y < n; ++y) {
            for (int x = 0; x < n; ++x) {
                const std::size_t c = std::size_t(y) * n + x;
                const std::size_t i = layer * cells + c;
                if (x > 0)
                    link(i, i - 1, g.lateral);
                if (x + 1 < n)
                    link(i, i + 1, g.lateral);
                if (y > 0)
                    link(i, i - n, g.lateral);
                if (y + 1 < n)
                    link(i, i + n, g.lateral);
                link(i, (1 - layer) * cells + c, g.bond);
                if (layer == 1)
                    a[i * width + i] += g.sink;
                for (std::size_t m = 0; m < rhs; ++m) {
                    const auto &map = layer == 0 ? maps[m].first
                                                 : maps[m].second;
                    a[i * width + dim + m] = map[c];
                }
            }
        }
    }
    for (std::size_t k = 0; k < dim; ++k) {
        std::size_t piv = k;
        for (std::size_t i = k + 1; i < dim; ++i) {
            if (std::abs(a[i * width + k]) > std::abs(a[piv * width + k]))
                piv = i;
        }
        for (std::size_t j = 0; j < width; ++j)
            std::swap(a[k * width + j], a[piv * width + j]);
        for (std::size_t i = k + 1; i < dim; ++i) {
            const double f = a[i * width + k] / a[k * width + k];
            if (f == 0.0)
                continue;
            for (std::size_t j = k; j < width; ++j)
                a[i * width + j] -= f * a[k * width + j];
        }
    }
    std::vector<std::vector<double>> temps(rhs,
                                           std::vector<double>(dim));
    for (std::size_t m = 0; m < rhs; ++m) {
        for (std::size_t i = dim; i-- > 0;) {
            double s = a[i * width + dim + m];
            for (std::size_t j = i + 1; j < dim; ++j)
                s -= a[i * width + j] * (temps[m][j] - p.ambient);
            temps[m][i] = p.ambient + s / a[i * width + i];
        }
    }
    return temps;
}

TEST(Thermal, StudyStackMatchesClosedForm)
{
    // The solve is exact to rounding, so the tolerance is far below
    // any iterative solver's stopping rule.
    const ThermalParams p;
    for (double core_w : {0.0, 1.0, 22.3, 63.0}) {
        for (double bank_w : {0.0, 0.02, 0.43, 1.5, 5.0}) {
            SCOPED_TRACE(testing::Message() << core_w << " W core, "
                                            << bank_w << " W/bank");
            expectClose(solveStudyStack(p, core_w, bank_w),
                        closedFormStudyStack(p, core_w, bank_w), 1e-9);
        }
    }
}

TEST(Thermal, EnergyBalancesForEveryMap)
{
    // In steady state all power leaves through the sink, whatever the
    // map: sum over top cells of g_sink * (T - ambient) == sum of P.
    const ThermalParams p;
    const std::size_t cells = std::size_t(p.grid) * p.grid;
    const double g_sink = conductances(p).sink;
    std::vector<double> tiles(8, 0.1);
    tiles[0] = 5.0; // the hot bank
    std::vector<double> corner(cells, 0.0);
    corner[0] = 3.0;
    std::vector<double> ramp(cells);
    for (std::size_t c = 0; c < cells; ++c)
        ramp[c] = 0.01 * double(c % 7) + 0.002 * double(c / 16);
    const std::vector<double> zero(cells, 0.0);
    const std::vector<PowerMaps> maps = {
        {zero, tileMap(p.grid, tiles)},
        {tileMap(p.grid, std::vector<double>(8, 22.3 / 8)),
         tileMap(p.grid, std::vector<double>(8, 0.43))},
        {corner, zero},
        {ramp, corner},
    };
    for (const auto &[bottom, top] : maps) {
        const std::vector<double> t = stackTemperatures(p, bottom, top);
        ASSERT_EQ(t.size(), 2 * cells);
        double in = 0.0;
        double out = 0.0;
        for (std::size_t c = 0; c < cells; ++c) {
            in += bottom[c] + top[c];
            out += g_sink * (t[cells + c] - p.ambient);
        }
        EXPECT_NEAR(out / in, 1.0, 1e-12) << in << " W in";
    }
}

TEST(Thermal, MatchesDenseReferenceOnTestMaps)
{
    // Every map the tests above solve, cell by cell on both dies.
    const ThermalParams p;
    const std::vector<double> zero(p.grid * p.grid, 0.0);
    std::vector<double> hot_tiles(8, 0.1);
    hot_tiles[0] = 5.0;
    const auto core = tileMap(p.grid, std::vector<double>(8, 22.3 / 8));
    const std::vector<PowerMaps> maps = {
        {zero, zero},
        {tileMap(p.grid, std::vector<double>(8, 1.0)), zero},
        {tileMap(p.grid, std::vector<double>(8, 3.0)), zero},
        {tileMap(p.grid, std::vector<double>(8, 2.5)), zero},
        {zero, tileMap(p.grid, hot_tiles)},
        {zero, tileMap(p.grid, std::vector<double>(8, 5.8 / 8.0))},
        {core, tileMap(p.grid, std::vector<double>(8, 0.43))},
        {core, tileMap(p.grid, std::vector<double>(8, 0.02))},
    };
    const auto want = denseReference(p, maps);
    for (std::size_t m = 0; m < maps.size(); ++m) {
        const std::vector<double> got =
            stackTemperatures(p, maps[m].first, maps[m].second);
        ASSERT_EQ(got.size(), want[m].size());
        double worst = 0.0;
        for (std::size_t i = 0; i < got.size(); ++i)
            worst = std::max(worst, std::abs(got[i] - want[m][i]));
        EXPECT_LE(worst, 1e-9) << "map pair " << m;
    }
}

TEST(Thermal, FactorFollowsGeometryAndAmbientShifts)
{
    // The factor is reused per geometry; a different bond or grid must
    // not reuse it, and the ambient only shifts every temperature.
    const ThermalParams p;
    ThermalParams stiff = p;
    stiff.kBond = 3.0;
    ThermalParams coarse = p;
    coarse.grid = 8;
    ThermalParams cool = p;
    cool.ambient = 300.0;
    for (int round = 0; round < 2; ++round) {
        for (const ThermalParams &q : {p, stiff, coarse, cool}) {
            expectClose(solveStudyStack(q, 22.3, 0.43),
                        closedFormStudyStack(q, 22.3, 0.43), 1e-9);
            const auto core =
                tileMap(q.grid, std::vector<double>(8, 22.3 / 8));
            const auto llc = tileMap(q.grid, std::vector<double>(8, 0.43));
            expectClose(solveStack(q, core, llc),
                        closedFormStudyStack(q, 22.3, 0.43), 1e-9);
        }
    }
}

TEST(Thermal, RejectsNonPositiveGeometry)
{
    ThermalParams p;
    const std::vector<double> zero(p.grid * p.grid, 0.0);
    p.kBond = 0.0;
    EXPECT_THROW(solveStack(p, zero, zero), std::invalid_argument);
    p = ThermalParams();
    p.rSinkPerArea = std::nan("");
    EXPECT_THROW(solveStudyStack(p, 1.0, 1.0), std::invalid_argument);
    p = ThermalParams();
    p.grid = 0;
    EXPECT_THROW(solveStack(p, {}, {}), std::invalid_argument);
}

} // namespace
