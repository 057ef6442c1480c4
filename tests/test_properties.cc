/**
 * @file
 * Cross-cutting property tests: scaling laws of the analytical model
 * and load/saturation behaviour of the simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/cacti.hh"
#include "sim/cache/coherence.hh"
#include "sim/common.hh"
#include "sim/cpu/system.hh"

namespace {

using namespace cactid;

MemoryConfig
cache(double bytes, double feature, RamCellTech tech = RamCellTech::Sram)
{
    MemoryConfig c;
    c.capacityBytes = bytes;
    c.blockBytes = 64;
    c.associativity = 8;
    c.type = MemoryType::Cache;
    c.featureNm = feature;
    c.dataCellTech = tech;
    c.tagCellTech = tech;
    return c;
}

// --- Technology scaling laws -----------------------------------------

TEST(Scaling, AreaShrinksWithFeatureSize)
{
    double prev = 1e9;
    for (double f : {90.0, 65.0, 45.0, 32.0}) {
        const double area = solve(cache(2 << 20, f)).best.totalArea;
        EXPECT_LT(area, prev) << f;
        prev = area;
    }
}

TEST(Scaling, ReadEnergyShrinksWithFeatureSize)
{
    const double e90 = solve(cache(2 << 20, 90.0)).best.readEnergy;
    const double e32 = solve(cache(2 << 20, 32.0)).best.readEnergy;
    EXPECT_LT(e32, e90 / 1.5);
}

TEST(Scaling, LeakageGrowsWithTemperature)
{
    MemoryConfig c = cache(2 << 20, 32.0);
    c.temperatureK = 310.0;
    const double cool = solve(c).best.leakage;
    c.temperatureK = 390.0;
    const double hot = solve(c).best.leakage;
    EXPECT_GT(hot, 2.0 * cool);
}

TEST(Scaling, DramRefreshInsensitiveToTemperatureModel)
{
    // Refresh power follows the retention spec, not the leakage derate.
    MemoryConfig c = cache(8 << 20, 32.0, RamCellTech::CommDram);
    c.temperatureK = 310.0;
    const double cool = solve(c).best.refreshPower;
    c.temperatureK = 390.0;
    const double hot = solve(c).best.refreshPower;
    EXPECT_NEAR(hot, cool, cool * 0.05);
}

TEST(Scaling, MoreBanksShorterBankAccess)
{
    MemoryConfig one = cache(16 << 20, 32.0);
    MemoryConfig eight = cache(16 << 20, 32.0);
    eight.nBanks = 8;
    // A 2MB bank is faster than a 16MB bank.
    EXPECT_LT(solve(eight).best.accessTime,
              solve(one).best.accessTime);
}

TEST(Scaling, RepeaterDerateMonotoneInEnergy)
{
    double prev = 1e9;
    for (double d : {1.0, 2.0, 3.0}) {
        MemoryConfig c = cache(8 << 20, 32.0);
        c.repeaterDerate = d;
        c.maxAccTimeConstraint = 5.0;
        const double e = solve(c).best.readEnergy;
        EXPECT_LE(e, prev * 1.0001) << d;
        prev = e;
    }
}

TEST(Scaling, AssociativityCostsTagEnergy)
{
    MemoryConfig low = cache(4 << 20, 32.0);
    low.associativity = 4;
    MemoryConfig high = cache(4 << 20, 32.0);
    high.associativity = 16;
    // Sequential mode isolates the tag-side cost.
    low.accessMode = AccessMode::Sequential;
    high.accessMode = AccessMode::Sequential;
    EXPECT_GT(solve(high).best.readEnergy,
              solve(low).best.readEnergy);
}

TEST(Scaling, MainMemoryRefreshScalesWithCapacity)
{
    MemoryConfig c;
    c.blockBytes = 8;
    c.type = MemoryType::MainMemoryChip;
    c.nBanks = 8;
    c.featureNm = 45.0;
    c.dataCellTech = RamCellTech::CommDram;
    c.pageBytes = 1024;
    c.capacityBytes = 1024.0 * 1024.0 * 1024.0 / 8.0;
    const double r1 = solve(c).best.refreshPower;
    c.capacityBytes *= 4.0;
    const double r4 = solve(c).best.refreshPower;
    EXPECT_NEAR(r4 / r1, 4.0, 1.5);
}

// --- Simulator saturation behaviour -------------------------------------

using namespace archsim;

WorkloadParams
memHammer(double mem_frac)
{
    WorkloadParams w;
    w.name = "hammer";
    w.memFrac = mem_frac;
    w.hotFrac = 0.0;
    w.streamFrac = 0.0;
    w.alpha = 1.0;
    w.wsBytes = 4 << 20;
    w.barrierEvery = 0;
    return w;
}

HierarchyParams
plainSystem()
{
    HierarchyParams hp;
    hp.l1Bytes = 4 << 10;
    hp.l2Bytes = 64 << 10;
    return hp;
}

TEST(Saturation, LatencyGrowsWithLoad)
{
    const SimStats light =
        System(plainSystem(), memHammer(0.05), 3000).run();
    const SimStats heavy =
        System(plainSystem(), memHammer(0.6), 3000).run();
    EXPECT_GT(heavy.avgReadLatency, 1.5 * light.avgReadLatency);
    EXPECT_LT(heavy.ipc, light.ipc);
}

TEST(Saturation, MoreChannelsRelievePressure)
{
    HierarchyParams two = plainSystem();
    HierarchyParams eight = plainSystem();
    eight.dram.nChannels = 8;
    const SimStats a = System(two, memHammer(0.5), 3000).run();
    const SimStats b = System(eight, memHammer(0.5), 3000).run();
    EXPECT_LT(b.avgReadLatency, a.avgReadLatency);
    EXPECT_GE(b.ipc, a.ipc);
}

TEST(Saturation, SlowerDramHurts)
{
    HierarchyParams fast = plainSystem();
    HierarchyParams slow = plainSystem();
    slow.dram.tRcd *= 3;
    slow.dram.tCas *= 3;
    slow.dram.tRas *= 3;
    const SimStats a = System(fast, memHammer(0.4), 3000).run();
    const SimStats b = System(slow, memHammer(0.4), 3000).run();
    EXPECT_GT(b.avgReadLatency, a.avgReadLatency);
    EXPECT_GT(b.cycles, a.cycles);
}

TEST(Saturation, SingleSubbankLlcThrottles)
{
    HierarchyParams wide = plainSystem();
    LlcParams lp;
    lp.capacityBytes = 512 << 10;
    lp.assoc = 8;
    lp.nBanks = 2;
    lp.nSubbanks = 16;
    lp.interleaveCycles = 1;
    lp.randomCycles = 24;
    wide.llc = lp;

    HierarchyParams narrow = wide;
    narrow.llc->nSubbanks = 1;
    narrow.llc->interleaveCycles = 24;

    WorkloadParams w = memHammer(0.5);
    w.wsBytes = (256 << 10) / 32.0; // L3 resident: pressure on banks
    w.alpha = 2.0;
    const SimStats a = System(wide, w, 4000).run();
    const SimStats b = System(narrow, w, 4000).run();
    EXPECT_GT(b.cycles, a.cycles);
}

// --- Directory/array equivalence -----------------------------------------

/**
 * Drive random MESI traffic and, after every transition, rebuild the
 * sharer set and dirty owner from the L2 tag arrays and assert the
 * coherence directory agrees exactly.  A deliberately tiny sparse
 * geometry forces both pointer overflow and directory-entry evictions,
 * so the equivalence holds across promotion, demotion, and the
 * eviction-invalidation path (an evicted entry's trackers are
 * invalidated, so the arrays shrink back to match the directory).
 */
void
directoryEquivalence(int cores, DirectoryMode mode, std::uint64_t seed)
{
    HierarchyParams hp;
    hp.l1Bytes = 2 << 10;
    hp.l1Assoc = 2;
    hp.l2Bytes = 8 << 10;
    hp.l2Assoc = 2;
    hp.nCores = cores;
    hp.dirMode = mode;
    hp.dir.sets = 16;
    hp.dir.assoc = 2;
    hp.dir.pointers = 2;
    CacheHierarchy h(hp);

    Rng rng(seed);
    Cycle now = 0;
    constexpr int kLines = 64;
    for (int i = 0; i < 3000; ++i) {
        const Addr addr = rng.below(kLines) * 64;
        const int core = int(rng.below(cores));
        const bool write = rng.uniform() < 0.4;
        const auto r = h.access(core, addr, write, false, now);
        now += r.latency + 1;

        // The hierarchy's own directory audit.
        ASSERT_TRUE(h.directoryConsistent(addr))
            << "audit failed, access " << i << " core " << core
            << (write ? " write" : " read");

        if (const SparseDirectory *d = h.sparseDir()) {
            // Independent of the audit: rebuild the sharer set and
            // dirty owner straight from the L2 arrays and compare.
            std::vector<int> holders;
            int owner = -1;
            for (int c = 0; c < cores; ++c) {
                const CState st = h.l2State(c, addr);
                if (st != CState::Invalid)
                    holders.push_back(c);
                if (st == CState::Modified)
                    owner = c;
            }
            ASSERT_EQ(d->sharers(addr), holders)
                << "sharer set diverged, access " << i;
            ASSERT_EQ(d->owner(addr), owner)
                << "owner diverged, access " << i;
        }
        if (i % 128 == 0) {
            ASSERT_TRUE(h.directoryConsistent())
                << "full audit failed, access " << i;
        }
    }
    ASSERT_TRUE(h.directoryConsistent());
    if (const SparseDirectory *d = h.sparseDir()) {
        // The geometry is tiny on purpose: both stressors must have
        // actually fired or the test proves less than it claims.
        EXPECT_GT(d->stats().overflows, 0u) << cores << " cores";
        EXPECT_GT(d->stats().evictions, 0u) << cores << " cores";
    }
}

TEST(DirectoryEquivalence, Sparse8Cores)
{
    directoryEquivalence(8, DirectoryMode::Sparse, 0x5D08);
}

TEST(DirectoryEquivalence, ImplicitSparse17Cores)
{
    directoryEquivalence(17, DirectoryMode::Auto, 0x5D17);
}

TEST(DirectoryEquivalence, Sparse32Cores)
{
    directoryEquivalence(32, DirectoryMode::Sparse, 0x5D32);
}

TEST(DirectoryEquivalence, Sparse64Cores)
{
    directoryEquivalence(64, DirectoryMode::Sparse, 0x5D64);
}

TEST(Saturation, FasterL2DoesNotHurt)
{
    HierarchyParams slow = plainSystem();
    slow.l2Cycles = 12;
    HierarchyParams fast = plainSystem();
    fast.l2Cycles = 2;
    WorkloadParams w = memHammer(0.4);
    w.hotFrac = 0.9;
    w.hotBytes = 24 << 10; // L2-resident hot set
    const SimStats a = System(slow, w, 4000).run();
    const SimStats b = System(fast, w, 4000).run();
    EXPECT_LE(b.cycles, a.cycles);
}

} // namespace
