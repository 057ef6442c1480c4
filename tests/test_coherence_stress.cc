/**
 * @file
 * Randomized MESI stress tests: drive the hierarchy with adversarial
 * random traffic and check the protocol invariants after every access.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "obs/trace.hh"
#include "sim/cache/coherence.hh"
#include "sim/common.hh"
#include "sim/cpu/system.hh"

namespace {

using namespace archsim;

HierarchyParams
stressSystem(bool with_l3)
{
    HierarchyParams hp;
    hp.l1Bytes = 2 << 10; // tiny: maximum eviction pressure
    hp.l1Assoc = 2;
    hp.l2Bytes = 8 << 10;
    hp.l2Assoc = 2;
    if (with_l3) {
        LlcParams lp;
        lp.capacityBytes = 64 << 10;
        lp.assoc = 4;
        lp.nBanks = 2;
        lp.nSubbanks = 2;
        hp.llc = lp;
    }
    return hp;
}

/** Shared fixture logic: random traffic + invariant checks. */
void
stress(bool with_l3, std::uint64_t seed, int accesses, int lines,
       int cores = 8, DirectoryMode dir_mode = DirectoryMode::Auto,
       SparseDirParams dir = {})
{
    HierarchyParams base = stressSystem(with_l3);
    base.nCores = cores;
    base.dirMode = dir_mode;
    base.dir = dir;
    CacheHierarchy h(base);
    Rng rng(seed);
    Cycle now = 0;
    std::vector<Addr> touched;
    for (int i = 0; i < accesses; ++i) {
        // Small line pool -> constant conflict and sharing.
        const Addr addr = rng.below(lines) * 64;
        const int core = int(rng.below(cores));
        const bool write = rng.uniform() < 0.4;
        const auto r = h.access(core, addr, write, false, now);
        now += r.latency + 1;
        ASSERT_TRUE(h.coherent(addr))
            << "incoherent after access " << i << " core " << core
            << (write ? " write " : " read ") << std::hex << addr;
        // Directory equivalence: the directory entry for this line
        // must equal the sharer set / dirty owner rebuilt from the L2
        // tag arrays.
        ASSERT_TRUE(h.directoryConsistent(addr))
            << "directory diverged after access " << i << " core "
            << core << (write ? " write " : " read ") << std::hex
            << addr;
        if (write) {
            // The writer must now hold a writable copy locally.
            ASSERT_TRUE(writable(h.l2State(core, addr)))
                << "writer lacks ownership after access " << i;
        }
        touched.push_back(addr);
        if (i % 64 == 0) {
            // Periodically audit a sample of history, plus the whole
            // directory against the whole set of L2 arrays.
            for (std::size_t k = 0; k < touched.size(); k += 17)
                ASSERT_TRUE(h.coherent(touched[k]));
            ASSERT_TRUE(h.directoryConsistent())
                << "full directory audit failed after access " << i;
        }
    }
}

TEST(CoherenceStress, RandomTrafficWithL3)
{
    stress(true, 0xDEAD, 4000, 64);
}

TEST(CoherenceStress, RandomTrafficWithoutL3)
{
    stress(false, 0xBEEF, 4000, 64);
}

TEST(CoherenceStress, SingleLineAllCores)
{
    // The worst case: every core hammers one line.
    stress(true, 0xF00D, 2000, 1);
}

TEST(CoherenceStress, WideAddressRange)
{
    stress(true, 0xCAFE, 3000, 4096);
}

class CoherenceStressSeeds : public ::testing::TestWithParam<int>
{
};

TEST_P(CoherenceStressSeeds, Randomized)
{
    stress(GetParam() % 2 == 0, 0x1000 + GetParam(), 2500, 96);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceStressSeeds,
                         ::testing::Range(0, 10));

/**
 * Property-based protocol checks: replay random interleavings against
 * an abstract line model (a version number bumped by every write, the
 * identity of the last writer, and the last version each core
 * observed) and assert the MESI invariants the directory must uphold:
 *
 *  - single writer: immediately after a write, the writer holds a
 *    writable copy and every other core's L2 is Invalid;
 *  - no stale reads: a core whose last observed version predates the
 *    current one cannot be served from its own L1/L2 (its copy must
 *    have been invalidated by the intervening remote write);
 *  - directory agreement: a Modified line is held by the last writer.
 *
 * Silent clean evictions only *remove* copies, so the invariants hold
 * regardless of replacement behaviour -- no reference sharer set is
 * kept (one would diverge under evictions).
 */
void
propertyStress(bool with_l3, std::uint64_t seed, int accesses,
               int lines, int kCores = 8,
               DirectoryMode dir_mode = DirectoryMode::Auto,
               SparseDirParams dir = {})
{
    HierarchyParams base = stressSystem(with_l3);
    base.nCores = kCores;
    base.dirMode = dir_mode;
    base.dir = dir;
    CacheHierarchy h(base);
    Rng rng(seed);
    Cycle now = 0;

    std::vector<std::uint64_t> version(lines, 0);
    std::vector<int> last_writer(lines, -1);
    // seen[core][line]: last version observed; -1 = never accessed.
    std::vector<std::vector<std::int64_t>> seen(
        kCores, std::vector<std::int64_t>(lines, -1));

    for (int i = 0; i < accesses; ++i) {
        const int line = int(rng.below(lines));
        const Addr addr = Addr(line) * 64;
        const int core = int(rng.below(kCores));
        const bool write = rng.uniform() < 0.4;

        const auto r = h.access(core, addr, write, false, now);
        now += r.latency + 1;

        // No stale read (or write hit) after a remote write: a core
        // behind the current version must not be served locally.
        if (seen[core][line] != std::int64_t(version[line])) {
            ASSERT_NE(r.servedBy, ServedBy::L1)
                << "stale L1 serve, access " << i << " core " << core;
            ASSERT_NE(r.servedBy, ServedBy::L2)
                << "stale L2 serve, access " << i << " core " << core;
        }

        if (write) {
            ++version[line];
            last_writer[line] = core;
            // Single writer, multiple readers: the write must have
            // invalidated every remote copy.
            ASSERT_TRUE(writable(h.l2State(core, addr)))
                << "writer lacks ownership, access " << i;
            for (int o = 0; o < kCores; ++o) {
                if (o == core)
                    continue;
                ASSERT_EQ(h.l2State(o, addr), CState::Invalid)
                    << "remote copy survived a write, access " << i
                    << " writer " << core << " holder " << o;
            }
        }
        seen[core][line] = std::int64_t(version[line]);

        // Directory agreement: only the last writer may hold Modified.
        for (int o = 0; o < kCores; ++o) {
            if (h.l2State(o, addr) == CState::Modified) {
                ASSERT_EQ(o, last_writer[line])
                    << "Modified holder is not the last writer, "
                       "access " << i;
            }
        }
        ASSERT_TRUE(h.coherent(addr));
        ASSERT_TRUE(h.directoryConsistent(addr))
            << "directory diverged, access " << i;
        if (i % 128 == 0) {
            ASSERT_TRUE(h.directoryConsistent());
        }
    }
    ASSERT_TRUE(h.directoryConsistent())
        << "final full directory audit failed";
}

TEST(CoherenceProperties, RandomInterleavingsWithL3)
{
    propertyStress(true, 0x5EED, 4000, 48);
}

TEST(CoherenceProperties, RandomInterleavingsWithoutL3)
{
    propertyStress(false, 0x51DE, 4000, 48);
}

TEST(CoherenceProperties, SingleLineContention)
{
    propertyStress(true, 0xACE, 2000, 1);
}

TEST(CoherenceStress, AutoModeBeyondFilterWidthUsesSparseDirectory)
{
    // Wider than Auto broadcasts with no explicit directory mode: the
    // hierarchy must NOT silently keep broadcasting — it builds a
    // sparse directory, flags the implicit fallback (surfaced as
    // sim.dir.implicit_sparse plus a one-time stderr warning), and
    // stays coherent.
    constexpr int kCores = kAutoBroadcastCores + 1;
    HierarchyParams hp = stressSystem(true);
    hp.nCores = kCores;
    CacheHierarchy h(hp);
    ASSERT_NE(h.sparseDir(), nullptr);
    ASSERT_TRUE(h.implicitSparse());

    Rng rng(0xFA11);
    Cycle now = 0;
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = rng.below(48) * 64;
        const int core = int(rng.below(kCores));
        const bool write = rng.uniform() < 0.4;
        const auto r = h.access(core, addr, write, false, now);
        now += r.latency + 1;
        ASSERT_TRUE(h.coherent(addr)) << "access " << i;
        ASSERT_TRUE(h.directoryConsistent(addr)) << "access " << i;
        if (write) {
            ASSERT_TRUE(writable(h.l2State(core, addr)))
                << "writer lacks ownership, access " << i;
        }
    }
    ASSERT_TRUE(h.directoryConsistent());
}

TEST(CoherenceStress, ExplicitBroadcastBeyondFilterWidth)
{
    // Opting into broadcast explicitly is still allowed: no directory,
    // no implicit-fallback flag — and still coherent.
    constexpr int kCores = kAutoBroadcastCores + 1;
    HierarchyParams hp = stressSystem(true);
    hp.nCores = kCores;
    hp.dirMode = DirectoryMode::Broadcast;
    CacheHierarchy h(hp);
    ASSERT_EQ(h.sparseDir(), nullptr);
    ASSERT_FALSE(h.implicitSparse());

    Rng rng(0xFA11);
    Cycle now = 0;
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = rng.below(48) * 64;
        const int core = int(rng.below(kCores));
        const bool write = rng.uniform() < 0.4;
        const auto r = h.access(core, addr, write, false, now);
        now += r.latency + 1;
        ASSERT_TRUE(h.coherent(addr)) << "access " << i;
        // Trivially true without a directory, but must not crash.
        ASSERT_TRUE(h.directoryConsistent(addr));
        if (write) {
            ASSERT_TRUE(writable(h.l2State(core, addr)))
                << "writer lacks ownership, access " << i;
        }
    }
    ASSERT_TRUE(h.directoryConsistent());
}

TEST(CoherenceStress, AutoModeAtBroadcastLimitBroadcasts)
{
    // The other side of the threshold: at kAutoBroadcastCores Auto
    // builds no directory and raises no implicit-sparse flag — every
    // L2 miss probes all remote L2s — and MESI still holds.
    HierarchyParams hp = stressSystem(true);
    hp.nCores = kAutoBroadcastCores;
    const CacheHierarchy h(hp);
    ASSERT_EQ(h.sparseDir(), nullptr);
    ASSERT_FALSE(h.implicitSparse());

    ASSERT_NO_FATAL_FAILURE(
        stress(true, 0x16C0, 3000, 64, kAutoBroadcastCores));
    ASSERT_NO_FATAL_FAILURE(
        propertyStress(false, 0x165D, 3000, 48, kAutoBroadcastCores));
}

/** A deliberately tiny directory so evictions and overflow both fire. */
SparseDirParams
tinyDir()
{
    SparseDirParams p;
    p.sets = 16;
    p.assoc = 2;
    p.pointers = 2;
    return p;
}

TEST(CoherenceStress, SparseDirectory32Cores)
{
    stress(true, 0x32C0, 3000, 64, 32, DirectoryMode::Sparse,
           tinyDir());
}

TEST(CoherenceStress, SparseDirectory64Cores)
{
    stress(false, 0x64C0, 3000, 64, 64, DirectoryMode::Sparse,
           tinyDir());
}

TEST(CoherenceProperties, SparseDirectory32Cores)
{
    propertyStress(true, 0x325D, 3000, 48, 32, DirectoryMode::Sparse,
                   tinyDir());
}

TEST(CoherenceProperties, SparseDirectory64Cores)
{
    propertyStress(false, 0x645D, 3000, 48, 64, DirectoryMode::Sparse,
                   tinyDir());
}

TEST(CoherenceProperties, SparseSingleLineContention)
{
    propertyStress(true, 0xACE2, 2000, 1, 32, DirectoryMode::Sparse,
                   tinyDir());
}

class CoherencePropertySeeds : public ::testing::TestWithParam<int>
{
};

TEST_P(CoherencePropertySeeds, Randomized)
{
    propertyStress(GetParam() % 2 == 0, 0x2000 + GetParam(), 2500, 64);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherencePropertySeeds,
                         ::testing::Range(0, 10));

TEST(CoherenceStress, BarrierMultiWakeStepsCoresInAscendingIdOrder)
{
    // A tight barrier interval makes every release wake all cores at
    // the same cycle; the woken cores then race their MESI upgrades
    // on a fully shared working set.  The event-driven scheduler must
    // pop the simultaneously woken cores in ascending id order — the
    // order the reference loop scans them in — or the coherence
    // traffic (and with it every counter and trace timestamp)
    // diverges.  Comparing the full event streams pins the step order
    // exactly.
    HierarchyParams hp = stressSystem(true);
    hp.nCores = 4;
    WorkloadParams w;
    w.name = "barriers";
    w.memFrac = 0.3;
    w.hotFrac = 0.2;
    w.streamFrac = 0.0;
    w.alpha = 1.0;
    w.wsBytes = 1 << 20;
    w.sharedFrac = 1.0;
    w.barrierEvery = 40;
    System ev(hp, w, 600, 4, 2);
    System ref(hp, w, 600, 4, 2);
    obs::TraceBuffer ta(1 << 16);
    obs::TraceBuffer tb(1 << 16);
    ev.setTrace(&ta);
    ref.setTrace(&tb);
    const SimStats a = ev.run();
    const SimStats b = ref.runReference();
    EXPECT_GT(a.fBarrier, 0.0); // barriers actually exercised
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.hier.l1Reads, b.hier.l1Reads);
    EXPECT_EQ(a.hier.l2Misses, b.hier.l2Misses);
    EXPECT_EQ(a.hier.c2cTransfers, b.hier.c2cTransfers);
    EXPECT_EQ(a.llcReads, b.llcReads);
    EXPECT_DOUBLE_EQ(a.fBarrier, b.fBarrier);

    ASSERT_EQ(ta.dropped(), 0u);
    ASSERT_EQ(tb.dropped(), 0u);
    const auto ea = ta.events();
    const auto eb = tb.events();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        ASSERT_STREQ(ea[i].name, eb[i].name) << "event " << i;
        ASSERT_EQ(ea[i].ts, eb[i].ts) << "event " << i;
        ASSERT_EQ(ea[i].dur, eb[i].dur) << "event " << i;
        ASSERT_EQ(ea[i].tid, eb[i].tid) << "event " << i;
        ASSERT_EQ(ea[i].argValue, eb[i].argValue) << "event " << i;
    }
}

TEST(CoherenceStress, ManyCoreEventModeMatchesReference)
{
    // 32 cores on the implicit sparse-directory path: the event-driven
    // scheduler and the reference loop must still agree cycle-for-cycle
    // — the directory adds snoop targeting and eviction invalidations,
    // and both run modes must see the identical sequence of them.  A
    // fully shared working set with barriers keeps the directory busy.
    HierarchyParams hp = stressSystem(true);
    hp.nCores = 32;
    WorkloadParams w;
    w.name = "manycore";
    w.memFrac = 0.3;
    w.hotFrac = 0.2;
    w.streamFrac = 0.0;
    w.alpha = 1.0;
    w.wsBytes = 1 << 20;
    w.sharedFrac = 1.0;
    w.barrierEvery = 40;
    System ev(hp, w, 300, 32, 2);
    System ref(hp, w, 300, 32, 2);
    obs::TraceBuffer ta(1 << 18);
    obs::TraceBuffer tb(1 << 18);
    ev.setTrace(&ta);
    ref.setTrace(&tb);
    const SimStats a = ev.run();
    const SimStats b = ref.runReference();
    EXPECT_EQ(a.dirImplicitSparse, 1u);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.hier.l1Reads, b.hier.l1Reads);
    EXPECT_EQ(a.hier.l2Misses, b.hier.l2Misses);
    EXPECT_EQ(a.hier.c2cTransfers, b.hier.c2cTransfers);
    EXPECT_EQ(a.llcReads, b.llcReads);
    EXPECT_EQ(a.dirEvictions, b.dirEvictions);
    EXPECT_EQ(a.dirOverflows, b.dirOverflows);

    ASSERT_EQ(ta.dropped(), 0u);
    ASSERT_EQ(tb.dropped(), 0u);
    const auto ea = ta.events();
    const auto eb = tb.events();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        ASSERT_STREQ(ea[i].name, eb[i].name) << "event " << i;
        ASSERT_EQ(ea[i].ts, eb[i].ts) << "event " << i;
        ASSERT_EQ(ea[i].tid, eb[i].tid) << "event " << i;
    }
}

} // namespace
