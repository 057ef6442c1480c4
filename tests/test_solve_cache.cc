/**
 * @file
 * Tests for the canonical config fingerprint, the memoized solve
 * cache (LRU bounds, concurrency, on-disk record validation, the
 * pinned record format) and the batch solve API: byte-identity with
 * serial solves, the same results, stats and cache state at any jobs,
 * and per-request errors.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/cacti.hh"
#include "core/engine.hh"
#include "core/fingerprint.hh"
#include "core/solve_cache.hh"
#include "obs/registry.hh"
#include "util/atomic_file.hh"
#include "util/hash.hh"

namespace {

using namespace cactid;

MemoryConfig
sramCache()
{
    MemoryConfig c;
    c.capacityBytes = 256 << 10;
    c.blockBytes = 64;
    c.associativity = 4;
    c.nBanks = 2;
    c.type = MemoryType::Cache;
    c.featureNm = 45.0;
    return c;
}

MemoryConfig
lpDramCache()
{
    MemoryConfig c = sramCache();
    c.capacityBytes = 1 << 20;
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

/** Exact comparison of every field a response or export can see. */
void
expectIdenticalSolution(const Solution &a, const Solution &b)
{
    EXPECT_EQ(a.data.part.rowsPerSubarray, b.data.part.rowsPerSubarray);
    EXPECT_EQ(a.data.part.colsPerSubarray, b.data.part.colsPerSubarray);
    EXPECT_EQ(a.data.part.blMux, b.data.part.blMux);
    EXPECT_EQ(a.data.part.samMux, b.data.part.samMux);
    EXPECT_EQ(a.data.nMats, b.data.nMats);
    EXPECT_EQ(a.nSubbanks, b.nSubbanks);
    EXPECT_EQ(a.accessTime, b.accessTime);
    EXPECT_EQ(a.randomCycle, b.randomCycle);
    EXPECT_EQ(a.interleaveCycle, b.interleaveCycle);
    EXPECT_EQ(a.totalArea, b.totalArea);
    EXPECT_EQ(a.areaEfficiency, b.areaEfficiency);
    EXPECT_EQ(a.readEnergy, b.readEnergy);
    EXPECT_EQ(a.writeEnergy, b.writeEnergy);
    EXPECT_EQ(a.leakage, b.leakage);
    EXPECT_EQ(a.refreshPower, b.refreshPower);
    EXPECT_EQ(a.tRcd, b.tRcd);
    EXPECT_EQ(a.tCas, b.tCas);
    EXPECT_EQ(a.tRp, b.tRp);
    EXPECT_EQ(a.tRas, b.tRas);
    EXPECT_EQ(a.tRc, b.tRc);
    EXPECT_EQ(a.tRrd, b.tRrd);
    EXPECT_EQ(a.activateEnergy, b.activateEnergy);
    EXPECT_EQ(a.readBurstEnergy, b.readBurstEnergy);
    EXPECT_EQ(a.writeBurstEnergy, b.writeBurstEnergy);
    EXPECT_EQ(a.objective, b.objective);
}

void
expectIdenticalResult(const SolveResult &a, const SolveResult &b)
{
    expectIdenticalSolution(a.best, b.best);
    ASSERT_EQ(a.filtered.size(), b.filtered.size());
    for (std::size_t i = 0; i < a.filtered.size(); ++i)
        expectIdenticalSolution(a.filtered[i], b.filtered[i]);
    EXPECT_EQ(a.stats.partitionsEnumerated,
              b.stats.partitionsEnumerated);
    EXPECT_EQ(a.stats.solutionsBuilt, b.stats.solutionsBuilt);
}

/** Every persisted BankMetrics field, compared exactly. */
void
expectSameBank(const BankMetrics &a, const BankMetrics &b)
{
    EXPECT_EQ(a.part.rowsPerSubarray, b.part.rowsPerSubarray);
    EXPECT_EQ(a.part.colsPerSubarray, b.part.colsPerSubarray);
    EXPECT_EQ(a.part.blMux, b.part.blMux);
    EXPECT_EQ(a.part.samMux, b.part.samMux);
    EXPECT_EQ(a.nMats, b.nMats);
    EXPECT_EQ(a.gridX, b.gridX);
    EXPECT_EQ(a.gridY, b.gridY);
    EXPECT_EQ(a.nActiveMats, b.nActiveMats);
    EXPECT_EQ(a.width, b.width);
    EXPECT_EQ(a.height, b.height);
    EXPECT_EQ(a.area, b.area);
    EXPECT_EQ(a.areaEfficiency, b.areaEfficiency);
    EXPECT_EQ(a.accessTime, b.accessTime);
    EXPECT_EQ(a.randomCycle, b.randomCycle);
    EXPECT_EQ(a.interleaveCycle, b.interleaveCycle);
    EXPECT_EQ(a.tRcd, b.tRcd);
    EXPECT_EQ(a.tCas, b.tCas);
    EXPECT_EQ(a.tRp, b.tRp);
    EXPECT_EQ(a.tRas, b.tRas);
    EXPECT_EQ(a.tRc, b.tRc);
    EXPECT_EQ(a.tRrd, b.tRrd);
    EXPECT_EQ(a.readEnergy, b.readEnergy);
    EXPECT_EQ(a.writeEnergy, b.writeEnergy);
    EXPECT_EQ(a.activateEnergy, b.activateEnergy);
    EXPECT_EQ(a.readBurstEnergy, b.readBurstEnergy);
    EXPECT_EQ(a.writeBurstEnergy, b.writeBurstEnergy);
    EXPECT_EQ(a.leakage, b.leakage);
    EXPECT_EQ(a.refreshPower, b.refreshPower);
    EXPECT_EQ(a.feasible, b.feasible);
}

/** Every persisted Solution field, both banks included. */
void
expectSameSolution(const Solution &a, const Solution &b)
{
    expectSameBank(a.data, b.data);
    expectSameBank(a.tag, b.tag);
    EXPECT_EQ(a.hasTag, b.hasTag);
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
    EXPECT_EQ(a.tCas, b.tCas);
    EXPECT_EQ(a.tRp, b.tRp);
    EXPECT_EQ(a.tRas, b.tRas);
    EXPECT_EQ(a.tRc, b.tRc);
    EXPECT_EQ(a.tRrd, b.tRrd);
    EXPECT_EQ(a.activateEnergy, b.activateEnergy);
    EXPECT_EQ(a.readBurstEnergy, b.readBurstEnergy);
    EXPECT_EQ(a.writeBurstEnergy, b.writeBurstEnergy);
    EXPECT_EQ(a.nSubbanks, b.nSubbanks);
    EXPECT_EQ(a.objective, b.objective);
}

/** Every persisted SolveResult field: lists, solutions and stats. */
void
expectSameResult(const SolveResult &a, const SolveResult &b)
{
    expectSameSolution(a.best, b.best);
    ASSERT_EQ(a.filtered.size(), b.filtered.size());
    for (std::size_t i = 0; i < a.filtered.size(); ++i)
        expectSameSolution(a.filtered[i], b.filtered[i]);
    const EngineStats &x = a.stats, &y = b.stats;
    EXPECT_EQ(x.partitionsEnumerated, y.partitionsEnumerated);
    EXPECT_EQ(x.partitionsInfeasible, y.partitionsInfeasible);
    EXPECT_EQ(x.solutionsBuilt, y.solutionsBuilt);
    EXPECT_EQ(x.areaPruned, y.areaPruned);
    EXPECT_EQ(x.timePruned, y.timePruned);
    EXPECT_EQ(x.peakLiveSolutions, y.peakLiveSolutions);
    EXPECT_EQ(x.jobsUsed, y.jobsUsed);
    EXPECT_EQ(x.setupSeconds, y.setupSeconds);
    EXPECT_EQ(x.evaluateSeconds, y.evaluateSeconds);
    EXPECT_EQ(x.filterSeconds, y.filterSeconds);
    EXPECT_EQ(x.totalSeconds, y.totalSeconds);
}

/**
 * A SolveResult in which every persisted field holds its own value
 * (bools alternate), so a field the cache record drops, swaps or
 * rounds cannot round-trip.  Pinned: tests/data/cache_v2_all_fields.rec
 * holds the record the cactid-cache-v2 encoder writes for it.
 */
SolveResult
distinctResult()
{
    int n = 0;
    const auto i = [&n] { return ++n; };
    const auto d = [&n] {
        ++n;
        return (n % 2 ? n : -n) / 7.0 * 1e-9;
    };
    const auto bank = [&](BankMetrics &b) {
        b.part = {i(), i(), i(), i()};
        b.nMats = i();
        b.gridX = i();
        b.gridY = i();
        b.nActiveMats = i();
        for (double *f : {&b.width, &b.height, &b.area, &b.areaEfficiency,
                          &b.accessTime, &b.randomCycle,
                          &b.interleaveCycle, &b.tRcd, &b.tCas, &b.tRp,
                          &b.tRas, &b.tRc, &b.tRrd, &b.readEnergy,
                          &b.writeEnergy, &b.activateEnergy,
                          &b.readBurstEnergy, &b.writeBurstEnergy,
                          &b.leakage, &b.refreshPower})
            *f = d();
        b.feasible = i() % 2 == 0;
    };
    const auto solution = [&] {
        Solution s;
        s.hasTag = i() % 2 == 0;
        for (double *f :
             {&s.totalArea, &s.bankArea, &s.areaEfficiency, &s.accessTime,
              &s.randomCycle, &s.interleaveCycle, &s.readEnergy,
              &s.writeEnergy, &s.leakage, &s.refreshPower, &s.tRcd,
              &s.tCas, &s.tRp, &s.tRas, &s.tRc, &s.tRrd,
              &s.activateEnergy, &s.readBurstEnergy,
              &s.writeBurstEnergy})
            *f = d();
        s.nSubbanks = i();
        s.objective = d();
        bank(s.data);
        bank(s.tag);
        return s;
    };
    SolveResult r;
    r.best = solution();
    r.filtered = {solution(), solution()};
    EngineStats &st = r.stats;
    st.partitionsEnumerated = i();
    st.partitionsInfeasible = i();
    st.solutionsBuilt = i();
    st.areaPruned = i();
    st.timePruned = i();
    st.peakLiveSolutions = i();
    st.jobsUsed = i();
    st.setupSeconds = d();
    st.evaluateSeconds = d();
    st.filterSeconds = d();
    st.totalSeconds = d();
    return r;
}

/** @p bytes with its crc trailer recomputed over the (edited) body. */
std::string
resealed(const std::string &bytes)
{
    const std::string body = bytes.substr(0, bytes.rfind("crc "));
    return body + "crc " + util::hex16(util::fnv1a64(body)) + "\n";
}

std::string
tempDir(const std::string &leaf)
{
    const std::string dir = ::testing::TempDir() + leaf;
    std::remove(dir.c_str());
    return dir;
}

// --- Fingerprint ----------------------------------------------------

TEST(Fingerprint, EqualConfigsAgree)
{
    const MemoryConfig a = sramCache();
    const MemoryConfig b = sramCache();
    EXPECT_EQ(canonicalKey(a), canonicalKey(b));
    EXPECT_EQ(configFingerprint(a), configFingerprint(b));
    EXPECT_EQ(configFingerprint(a).hex().size(), 32u);
}

TEST(Fingerprint, DerivedFromKeyBytes)
{
    const MemoryConfig c = lpDramCache();
    EXPECT_EQ(keyFingerprint(canonicalKey(c)), configFingerprint(c));
    EXPECT_NE(configFingerprint(c).lo, configFingerprint(c).hi);
}

/** Every solve-relevant MemoryConfig field must perturb the key. */
TEST(Fingerprint, EverySolveRelevantFieldIsHashed)
{
    const MemoryConfig base = sramCache();
    std::vector<MemoryConfig> variants;
    auto with = [&](auto &&mutate) {
        MemoryConfig c = base;
        mutate(c);
        variants.push_back(c);
    };
    with([](MemoryConfig &c) { c.capacityBytes *= 2; });
    with([](MemoryConfig &c) { c.blockBytes = 32; });
    with([](MemoryConfig &c) { c.associativity = 8; });
    with([](MemoryConfig &c) { c.nBanks = 4; });
    with([](MemoryConfig &c) { c.type = MemoryType::PlainRam; });
    with([](MemoryConfig &c) { c.accessMode = AccessMode::Fast; });
    with([](MemoryConfig &c) { c.physicalAddressBits = 48; });
    with([](MemoryConfig &c) { c.ports = 2; });
    with([](MemoryConfig &c) { c.includeEcc = true; });
    with([](MemoryConfig &c) { c.featureNm = 32.0; });
    with([](MemoryConfig &c) { c.temperatureK = 360.0; });
    with([](MemoryConfig &c) {
        c.dataCellTech = RamCellTech::LpDram;
    });
    with([](MemoryConfig &c) {
        c.tagCellTech = RamCellTech::LpDram;
    });
    with([](MemoryConfig &c) { c.sleepTransistors = true; });
    with([](MemoryConfig &c) { c.maxAreaConstraint = 0.5; });
    with([](MemoryConfig &c) { c.maxAccTimeConstraint = 0.2; });
    with([](MemoryConfig &c) { c.repeaterDerate = 0.9; });
    with([](MemoryConfig &c) { c.weights.dynamicEnergy = 3.0; });
    with([](MemoryConfig &c) { c.weights.leakage = 3.0; });
    with([](MemoryConfig &c) { c.weights.randomCycle = 3.0; });
    with([](MemoryConfig &c) { c.weights.interleaveCycle = 3.0; });
    with([](MemoryConfig &c) { c.weights.accessTime = 3.0; });
    with([](MemoryConfig &c) { c.weights.area = 3.0; });
    with([](MemoryConfig &c) { c.ioBits = 16; });
    with([](MemoryConfig &c) { c.burstLength = 4; });
    with([](MemoryConfig &c) { c.prefetchWidth = 4; });
    with([](MemoryConfig &c) { c.pageBytes = 2048; });
    with([](MemoryConfig &c) { c.ioDelay = 9e-9; });
    with([](MemoryConfig &c) { c.ioEnergyPerBit = 20e-12; });

    const ConfigFingerprint fp = configFingerprint(base);
    for (std::size_t i = 0; i < variants.size(); ++i) {
        EXPECT_NE(configFingerprint(variants[i]), fp)
            << "variant " << i << " did not change the fingerprint";
        for (std::size_t j = i + 1; j < variants.size(); ++j)
            EXPECT_NE(configFingerprint(variants[i]),
                      configFingerprint(variants[j]))
                << "variants " << i << " and " << j << " collide";
    }
}

TEST(Fingerprint, DoubleRenderingIsRoundTripExact)
{
    MemoryConfig a = sramCache();
    MemoryConfig b = sramCache();
    b.featureNm = std::nextafter(b.featureNm, 1e9);
    EXPECT_NE(canonicalKey(a), canonicalKey(b));
    EXPECT_NE(configFingerprint(a), configFingerprint(b));
}

TEST(Fingerprint, ShareKeyIgnoresOnlyWeights)
{
    MemoryConfig a = sramCache();
    MemoryConfig b = sramCache();
    b.weights = {1.0, 2.0, 0.5, 0.5, 0.0, 2.0};
    EXPECT_NE(configFingerprint(a), configFingerprint(b));
    EXPECT_EQ(canonicalShareKey(a), canonicalShareKey(b));
    EXPECT_EQ(keyFingerprint(canonicalShareKey(a)),
              keyFingerprint(canonicalShareKey(b)));

    MemoryConfig c = sramCache();
    c.nBanks = 4;
    EXPECT_NE(keyFingerprint(canonicalShareKey(a)),
              keyFingerprint(canonicalShareKey(c)));
}

// --- In-memory cache ------------------------------------------------

TEST(SolveCache, MissThenHitRoundTrips)
{
    SolveCache cache;
    const MemoryConfig cfg = sramCache();
    const std::string key = canonicalKey(cfg);
    const ConfigFingerprint fp = keyFingerprint(key);

    SolveResult out;
    EXPECT_FALSE(cache.lookup(fp, key, out));
    EXPECT_EQ(cache.counters().misses, 1u);

    const SolveResult res = solve(cfg);
    cache.insert(fp, key, res);
    SolveResult hit;
    ASSERT_TRUE(cache.lookup(fp, key, hit));
    expectIdenticalResult(hit, res);

    const SolveCacheCounters c = cache.counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.inserts, 1u);
    EXPECT_EQ(c.entries, 1u);
    EXPECT_GT(c.bytes, 0u);
}

TEST(SolveCache, LruEntryBoundEvictsOldest)
{
    SolveCacheConfig cc;
    cc.maxEntries = 2;
    SolveCache cache(cc);

    const std::vector<MemoryConfig> cfgs = {sramCache(), lpDramCache(),
                                            commDramChip()};
    std::vector<std::string> keys;
    std::vector<ConfigFingerprint> fps;
    for (const MemoryConfig &cfg : cfgs) {
        keys.push_back(canonicalKey(cfg));
        fps.push_back(keyFingerprint(keys.back()));
        cache.insert(fps.back(), keys.back(), solve(cfg));
    }

    const SolveCacheCounters c = cache.counters();
    EXPECT_EQ(c.entries, 2u);
    EXPECT_GE(c.evictions, 1u);

    SolveResult out;
    EXPECT_FALSE(cache.lookup(fps[0], keys[0], out)); // evicted
    EXPECT_TRUE(cache.lookup(fps[1], keys[1], out));
    EXPECT_TRUE(cache.lookup(fps[2], keys[2], out));
}

TEST(SolveCache, EntryBoundCoversTheWholeCache)
{
    SolveCacheConfig cc;
    cc.maxEntries = 4;
    SolveCache cache(cc);

    // A bound split over 8 lock shards (index (lo ^ hi) % 8) is one
    // entry per shard at maxEntries = 4; these six capacities hash to
    // only two shards there, so such a cache keeps two of them.  One
    // LRU keeps the newest four, wherever they hash.
    std::vector<std::string> keys;
    std::vector<ConfigFingerprint> fps;
    for (const int kib : {16, 32, 64, 1024, 2048, 4096}) {
        MemoryConfig cfg = sramCache();
        cfg.capacityBytes = kib * 1024.0;
        keys.push_back(canonicalKey(cfg));
        fps.push_back(keyFingerprint(keys.back()));
        cache.insert(fps.back(), keys.back(), solve(cfg));
    }

    const SolveCacheCounters c = cache.counters();
    EXPECT_EQ(c.entries, 4u);
    EXPECT_EQ(c.evictions, 2u);
    SolveResult out;
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(cache.lookup(fps[i], keys[i], out), i >= 2)
            << "capacity #" << i;
}

TEST(SolveCache, ByteBoundKeepsAtLeastOneEntry)
{
    SolveCacheConfig cc;
    cc.maxBytes = 1; // far below any entry
    SolveCache cache(cc);

    const MemoryConfig cfg = sramCache();
    const std::string key = canonicalKey(cfg);
    const ConfigFingerprint fp = keyFingerprint(key);
    cache.insert(fp, key, solve(cfg));

    // An over-budget sole entry stays resident (the cache must still
    // be able to serve the config it just solved).
    SolveResult out;
    EXPECT_TRUE(cache.lookup(fp, key, out));
    EXPECT_EQ(cache.counters().entries, 1u);
}

TEST(SolveCache, ConcurrentHitsAreRaceFree)
{
    SolveCache cache;
    const std::vector<MemoryConfig> cfgs = {sramCache(),
                                            lpDramCache()};
    std::vector<std::string> keys;
    std::vector<ConfigFingerprint> fps;
    std::vector<SolveResult> results;
    for (const MemoryConfig &cfg : cfgs) {
        keys.push_back(canonicalKey(cfg));
        fps.push_back(keyFingerprint(keys.back()));
        results.push_back(solve(cfg));
    }

    constexpr int kThreads = 8;
    constexpr int kIters = 200;
    std::vector<std::thread> threads;
    std::atomic<int> mismatches{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                const std::size_t which = (t + i) % cfgs.size();
                SolveResult out;
                if (cache.lookup(fps[which], keys[which], out)) {
                    if (out.best.accessTime !=
                        results[which].best.accessTime)
                        ++mismatches;
                } else {
                    cache.insert(fps[which], keys[which],
                                 results[which]);
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_GT(cache.counters().hits, 0u);
}

// --- On-disk records ------------------------------------------------

struct DiskFixture {
    std::string dir;
    MemoryConfig cfg = sramCache();
    std::string key;
    ConfigFingerprint fp;
    SolveResult res;

    explicit DiskFixture(const std::string &leaf)
        : dir(tempDir(leaf)), key(canonicalKey(cfg)),
          fp(keyFingerprint(key)), res(solve(cfg))
    {
    }

    SolveCacheConfig
    config(const std::string &stamp) const
    {
        SolveCacheConfig cc;
        cc.diskDir = dir;
        cc.buildStamp = stamp;
        return cc;
    }
};

TEST(SolveCacheDisk, RecordRoundTripsAcrossProcesses)
{
    const DiskFixture fx("sc_roundtrip");
    {
        SolveCache writer(fx.config("stamp-a"));
        writer.insert(fx.fp, fx.key, fx.res);
        EXPECT_EQ(writer.counters().diskWrites, 1u);
    }
    SolveCache reader(fx.config("stamp-a")); // fresh "process"
    SolveResult out;
    ASSERT_TRUE(reader.lookup(fx.fp, fx.key, out));
    expectIdenticalResult(out, fx.res);
    const SolveCacheCounters c = reader.counters();
    EXPECT_EQ(c.diskHits, 1u);
    EXPECT_EQ(c.hits, 1u);

    // Now resident in memory: the second hit needs no disk.
    ASSERT_TRUE(reader.lookup(fx.fp, fx.key, out));
    EXPECT_EQ(reader.counters().diskHits, 1u);
}

TEST(SolveCacheDisk, StaleBuildStampIsRejectedWithWarning)
{
    const DiskFixture fx("sc_stale");
    {
        SolveCache writer(fx.config("stamp-old"));
        writer.insert(fx.fp, fx.key, fx.res);
    }
    std::vector<std::string> warnings;
    SolveCacheConfig cc = fx.config("stamp-new");
    cc.onWarn = [&](const std::string &msg) {
        warnings.push_back(msg);
    };
    SolveCache reader(cc);
    SolveResult out;
    EXPECT_FALSE(reader.lookup(fx.fp, fx.key, out));
    EXPECT_EQ(reader.counters().rejected, 1u);
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("build fingerprint mismatch"),
              std::string::npos);
}

TEST(SolveCacheDisk, TornRecordIsRejected)
{
    const DiskFixture fx("sc_torn");
    SolveCache writer(fx.config("stamp-a"));
    writer.insert(fx.fp, fx.key, fx.res);

    std::string bytes, err;
    ASSERT_TRUE(
        util::readFile(writer.recordPath(fx.fp), bytes, &err));
    ASSERT_TRUE(util::writeFileAtomic(
        writer.recordPath(fx.fp), bytes.substr(0, bytes.size() / 2),
        &err));

    std::vector<std::string> warnings;
    SolveCacheConfig cc = fx.config("stamp-a");
    cc.onWarn = [&](const std::string &msg) {
        warnings.push_back(msg);
    };
    SolveCache reader(cc);
    SolveResult out;
    EXPECT_FALSE(reader.lookup(fx.fp, fx.key, out));
    EXPECT_EQ(reader.counters().rejected, 1u);
    EXPECT_EQ(warnings.size(), 1u);
}

TEST(SolveCacheDisk, CorruptPayloadFailsCrc)
{
    const DiskFixture fx("sc_corrupt");
    SolveCache writer(fx.config("stamp-a"));
    writer.insert(fx.fp, fx.key, fx.res);

    std::string bytes, err;
    ASSERT_TRUE(
        util::readFile(writer.recordPath(fx.fp), bytes, &err));
    const std::size_t mid = bytes.size() / 2;
    bytes[mid] = bytes[mid] == 'x' ? 'y' : 'x';
    ASSERT_TRUE(
        util::writeFileAtomic(writer.recordPath(fx.fp), bytes, &err));

    SolveCache reader(fx.config("stamp-a"));
    SolveResult out;
    EXPECT_FALSE(reader.lookup(fx.fp, fx.key, out));
    EXPECT_EQ(reader.counters().rejected, 1u);
}

TEST(SolveCacheDisk, AlienRecordAtWrongPathIsRejected)
{
    const DiskFixture fx("sc_alien");
    SolveCache writer(fx.config("stamp-a"));
    writer.insert(fx.fp, fx.key, fx.res);

    // Drop a record for a DIFFERENT config at this config's path, as
    // if a file had been renamed or a fingerprint collided.
    const MemoryConfig other = lpDramCache();
    const std::string other_key = canonicalKey(other);
    const std::string alien = writer.encodeRecord(other_key, solve(other));
    std::string err;
    ASSERT_TRUE(
        util::writeFileAtomic(writer.recordPath(fx.fp), alien, &err));

    std::vector<std::string> warnings;
    SolveCacheConfig cc = fx.config("stamp-a");
    cc.onWarn = [&](const std::string &msg) {
        warnings.push_back(msg);
    };
    SolveCache reader(cc);
    SolveResult out;
    EXPECT_FALSE(reader.lookup(fx.fp, fx.key, out));
    EXPECT_EQ(reader.counters().rejected, 1u);
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("alien"), std::string::npos);
}

TEST(SolveCacheDisk, DecodeRecordReportsDefects)
{
    const DiskFixture fx("sc_decode");
    SolveCache cache(fx.config("stamp-a"));
    const std::string rec = cache.encodeRecord(fx.key, fx.res);

    SolveResult out;
    std::string why;
    EXPECT_EQ(cache.decodeRecord(rec, fx.fp, fx.key, out, &why),
              SolveCache::Load::Loaded);
    expectIdenticalResult(out, fx.res);

    EXPECT_EQ(cache.decodeRecord("not a record", fx.fp, fx.key, out,
                                 &why),
              SolveCache::Load::Rejected);
    EXPECT_FALSE(why.empty());
}

TEST(SolveCacheDisk, HostileListCountIsRejectedAndResolved)
{
    const DiskFixture fx("sc_hostile");
    std::string path;
    {
        SolveCache writer(fx.config("stamp-a"));
        writer.insert(fx.fp, fx.key, fx.res);
        path = writer.recordPath(fx.fp);
    }
    // A record whose crc is valid but whose list count is absurd:
    // rejected like any bad record, never an allocation failure.
    std::string bytes, err;
    ASSERT_TRUE(util::readFile(path, bytes, &err));
    const std::size_t at = bytes.find("\nfiltered ") + 1;
    const std::size_t eol = bytes.find('\n', at);
    bytes.replace(at, eol - at, "filtered 1152921504606846976");
    ASSERT_TRUE(util::writeFileAtomic(path, resealed(bytes), &err));

    std::vector<std::string> warnings;
    SolveCacheConfig cc = fx.config("stamp-a");
    cc.onWarn = [&](const std::string &msg) {
        warnings.push_back(msg);
    };
    SolveCache reader(cc);
    SolverOptions opts;
    opts.cache = &reader;
    const SolveResult res = SolverEngine(opts).run(fx.cfg);
    expectIdenticalResult(res, fx.res);
    const SolveCacheCounters c = reader.counters();
    EXPECT_EQ(c.rejected, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.inserts, 1u); // re-solved and re-persisted
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("exceeds"), std::string::npos)
        << warnings[0];
}

// --- Record format pins ----------------------------------------------

const char *const kFixtureKey = "cactid-config-v1|fixture=all-fields";

TEST(SolveCacheFormat, EveryFieldRoundTrips)
{
    SolveCacheConfig cc;
    cc.buildStamp = "fixture-stamp";
    const SolveCache cache(cc);
    const SolveResult want = distinctResult();
    SolveResult out;
    std::string why;
    ASSERT_EQ(cache.decodeRecord(cache.encodeRecord(kFixtureKey, want),
                                 keyFingerprint(kFixtureKey), kFixtureKey,
                                 out, &why),
              SolveCache::Load::Loaded)
        << why;
    expectSameResult(out, want);
}

/** A pinned record under tests/data. */
std::string
pinnedRecord(const std::string &name)
{
    std::string bytes, err;
    EXPECT_TRUE(util::readFile(std::string(CACTID_TEST_DATA_DIR) + "/" +
                                   name,
                               bytes, &err))
        << err;
    return bytes;
}

TEST(SolveCacheFormat, PinnedV2RecordLoadsAndReencodesIdentically)
{
    // Written by the cactid-cache-v2 encoder for distinctResult(); the
    // format must not move.
    const std::string pinned = pinnedRecord("cache_v2_all_fields.rec");
    ASSERT_FALSE(pinned.empty());
    SolveCacheConfig cc;
    cc.buildStamp = "fixture-stamp";
    const SolveCache cache(cc);
    SolveResult out;
    std::string why;
    ASSERT_EQ(cache.decodeRecord(pinned, keyFingerprint(kFixtureKey),
                                 kFixtureKey, out, &why),
              SolveCache::Load::Loaded)
        << why;
    expectSameResult(out, distinctResult());
    EXPECT_EQ(cache.encodeRecord(kFixtureKey, out), pinned);
    EXPECT_EQ(cache.encodeRecord(kFixtureKey, distinctResult()), pinned);
}

TEST(SolveCacheFormat, PinnedV1RecordIsRejected)
{
    // The cactid-cache-v1 record (with the retired `hasall` and `all`
    // lines) no longer decodes: one line says why.
    const std::string v1 = pinnedRecord("cache_v1_all_fields.rec");
    ASSERT_EQ(v1.rfind("cactid-cache-v1\n", 0), 0u);
    SolveCacheConfig cc;
    cc.buildStamp = "fixture-stamp";
    const SolveCache cache(cc);
    SolveResult out;
    std::string why;
    EXPECT_EQ(cache.decodeRecord(v1, keyFingerprint(kFixtureKey),
                                 kFixtureKey, out, &why),
              SolveCache::Load::Rejected);
    EXPECT_EQ(why, "unrecognized version header");

    // Left in a cache directory at a config's record path, it counts
    // as rejected, the config is solved again, and the v2 record
    // replaces it.
    const DiskFixture fx("sc_v1");
    std::vector<std::string> warnings;
    cc = fx.config("fixture-stamp");
    cc.onWarn = [&](const std::string &msg) { warnings.push_back(msg); };
    SolveCache reader(cc);
    std::string err;
    ASSERT_TRUE(util::writeFileAtomic(reader.recordPath(fx.fp), v1, &err))
        << err;
    SolverOptions opts;
    opts.cache = &reader;
    expectIdenticalResult(SolverEngine(opts).run(fx.cfg), fx.res);
    const SolveCacheCounters c = reader.counters();
    EXPECT_EQ(c.rejected, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.inserts, 1u);
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_EQ(warnings[0].find('\n'), std::string::npos);
    EXPECT_NE(warnings[0].find("unrecognized version header"),
              std::string::npos)
        << warnings[0];
    std::string rewritten;
    ASSERT_TRUE(util::readFile(reader.recordPath(fx.fp), rewritten, &err));
    EXPECT_EQ(rewritten.rfind("cactid-cache-v2\n", 0), 0u);
}

// --- Registry + global install --------------------------------------

TEST(SolveCacheStats, AllNamesEmittedAsZeros)
{
    obs::Registry r;
    registerSolveCacheStats(r, SolveCacheCounters{});
    for (const char *name :
         {"engine.cache.hits", "engine.cache.misses",
          "engine.cache.evictions", "engine.cache.inserts",
          "engine.cache.disk_hits", "engine.cache.disk_writes",
          "engine.cache.rejected", "engine.cache.entries",
          "engine.cache.bytes"}) {
        EXPECT_EQ(r.counterValue(name), 0u) << name;
        EXPECT_EQ(r.counters().count(name), 1u) << name;
    }
}

TEST(SolveCacheGlobal, EngineUsesInstalledCache)
{
    SolveCache cache;
    setGlobalSolveCache(&cache);
    const MemoryConfig cfg = sramCache();
    const SolveResult first = solve(cfg);
    const SolveResult second = solve(cfg);
    setGlobalSolveCache(nullptr);

    expectIdenticalResult(first, second);
    EXPECT_EQ(cache.counters().misses, 1u);
    EXPECT_EQ(cache.counters().hits, 1u);

    // Uninstalled again: solves bypass the cache.
    (void)solve(cfg);
    EXPECT_EQ(cache.counters().hits, 1u);
}

// --- Batch API ------------------------------------------------------

TEST(SolveBatch, MatchesSerialSolvesAcrossTechnologies)
{
    std::vector<MemoryConfig> batch = {sramCache(), lpDramCache(),
                                       commDramChip()};
    batch.push_back(sramCache()); // duplicate
    MemoryConfig weighted = lpDramCache();
    weighted.weights = {1.0, 2.0, 0.5, 0.5, 0.0, 2.0};
    batch.push_back(weighted); // weight-only variant

    for (const int jobs : {1, 4}) {
        SolverOptions opts;
        opts.jobs = jobs;
        const SolverEngine engine(opts);
        BatchStats stats{};
        const std::vector<SolveResult> results =
            engine.solveBatch(batch, &stats);
        ASSERT_EQ(results.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            SCOPED_TRACE("request " + std::to_string(i) + " jobs " +
                         std::to_string(jobs));
            expectIdenticalResult(results[i], engine.run(batch[i]));
        }
        EXPECT_EQ(stats.requests, batch.size());
        EXPECT_EQ(stats.uniqueSolves, 4u); // duplicate deduped
        EXPECT_EQ(stats.shareGroups, 3u);  // variant shares its group
        EXPECT_EQ(stats.cacheHits, 0u);
    }
}

TEST(SolveBatch, SecondBatchServedFromCache)
{
    SolveCache cache;
    SolverOptions opts;
    opts.cache = &cache;
    const SolverEngine engine(opts);
    const std::vector<MemoryConfig> batch = {sramCache(),
                                             lpDramCache()};

    BatchStats cold{};
    const std::vector<SolveResult> first =
        engine.solveBatch(batch, &cold);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.uniqueSolves, 2u);

    BatchStats warm{};
    const std::vector<SolveResult> second =
        engine.solveBatch(batch, &warm);
    EXPECT_EQ(warm.cacheHits, 2u);
    EXPECT_EQ(warm.uniqueSolves, 2u); // still 2 distinct fingerprints
    EXPECT_EQ(warm.shareGroups, 0u);  // but no pipeline ran
    for (std::size_t i = 0; i < batch.size(); ++i)
        expectIdenticalResult(second[i], first[i]);
}

TEST(SolveBatch, InvalidRequestFailsTheBatch)
{
    MemoryConfig invalid = sramCache();
    invalid.capacityBytes = 0.0; // rejected downstream
    const SolverEngine engine{SolverOptions{}};
    // All-or-nothing: callers needing per-request isolation (the
    // serve front end) fall back to independent run() calls.
    EXPECT_ANY_THROW(
        (void)engine.solveBatch({sramCache(), invalid}));
}

TEST(SolveBatch, NonFiniteWeightInShareGroupFailsTheBatch)
{
    // A weight-only variant rides its group's pipeline, which only the
    // group's first config enters, so its own weights need their own
    // check before its objective pass.
    MemoryConfig bad = sramCache();
    bad.weights.area = std::nan("");
    const SolverEngine engine{SolverOptions{}};
    EXPECT_THROW((void)engine.solveBatch({sramCache(), bad}),
                 std::invalid_argument);
}

/**
 * Seven requests in five share groups: a duplicate and a weight-only
 * variant ride along.
 */
std::vector<MemoryConfig>
fiveGroupBatch()
{
    MemoryConfig ram = sramCache();
    ram.type = MemoryType::PlainRam;
    ram.capacityBytes = 128 << 10;
    MemoryConfig wide = sramCache();
    wide.capacityBytes = 512 << 10;
    wide.associativity = 8;
    MemoryConfig weighted = lpDramCache();
    weighted.weights = {1.0, 2.0, 0.5, 0.5, 0.0, 2.0};
    return {sramCache(), lpDramCache(), ram,         commDramChip(),
            weighted,    wide,          sramCache()};
}

/** A valid config whose tag array no organization can build. */
MemoryConfig
infeasibleCache()
{
    MemoryConfig c = sramCache();
    c.capacityBytes = 1 << 10;
    c.associativity = 16;
    c.nBanks = 8;
    return c;
}

/** What run(cfg) throws, as (dynamic type name, message). */
std::pair<std::string, std::string>
runError(const MemoryConfig &cfg)
{
    try {
        (void)SolverEngine(SolverOptions{1}).run(cfg);
    } catch (const std::exception &e) {
        return {typeid(e).name(), e.what()};
    }
    ADD_FAILURE() << "run() did not throw for " << cfg.summary();
    return {};
}

/** The same pair for a captured error. */
std::pair<std::string, std::string>
errorOf(const std::exception_ptr &error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        return {typeid(e).name(), e.what()};
    }
}

TEST(SolveBatch, SameResultsStatsAndEvictionsAtAnyJobs)
{
    const std::vector<MemoryConfig> batch = fiveGroupBatch();
    std::vector<MemoryConfig> reversed(batch.rbegin(), batch.rend());
    std::vector<SolveResult> want;
    for (const MemoryConfig &cfg : batch)
        want.push_back(SolverEngine(SolverOptions{1}).run(cfg));

    struct Run {
        std::vector<SolveResult> cold, warm;
        BatchStats coldStats, warmStats;
        SolveCacheCounters counters;
        std::vector<bool> resident; ///< which configs survived, at the end
    };
    std::vector<Run> runs;
    for (const int jobs : {1, 2, 8}) {
        SolveCacheConfig small;
        small.maxEntries = 3; // six unique solves: three are evicted
        SolveCache cache(small);
        SolverOptions opts;
        opts.jobs = jobs;
        opts.cache = &cache;
        const SolverEngine engine(opts);
        Run r;
        r.cold = engine.solveBatch(batch, &r.coldStats);
        r.warm = engine.solveBatch(reversed, &r.warmStats);
        r.counters = cache.counters();
        for (const MemoryConfig &cfg : batch) {
            const std::string key = canonicalKey(cfg);
            SolveResult ignored;
            r.resident.push_back(
                cache.lookup(keyFingerprint(key), key, ignored));
        }
        runs.push_back(std::move(r));
    }

    for (std::size_t j = 0; j < runs.size(); ++j) {
        SCOPED_TRACE("run " + std::to_string(j));
        const Run &r = runs[j];
        ASSERT_EQ(r.cold.size(), batch.size());
        ASSERT_EQ(r.warm.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            expectIdenticalResult(r.cold[i], want[i]);
            expectIdenticalResult(r.warm[batch.size() - 1 - i], want[i]);
        }
        EXPECT_EQ(r.coldStats.requests, 7u);
        EXPECT_EQ(r.coldStats.uniqueSolves, 6u);
        EXPECT_EQ(r.coldStats.shareGroups, 5u);
        EXPECT_EQ(r.coldStats.cacheHits, 0u);
        EXPECT_GT(r.counters.evictions, 0u);

        const Run &first = runs.front();
        EXPECT_EQ(r.warmStats.uniqueSolves, first.warmStats.uniqueSolves);
        EXPECT_EQ(r.warmStats.cacheHits, first.warmStats.cacheHits);
        EXPECT_EQ(r.warmStats.shareGroups, first.warmStats.shareGroups);
        EXPECT_EQ(r.counters.hits, first.counters.hits);
        EXPECT_EQ(r.counters.misses, first.counters.misses);
        EXPECT_EQ(r.counters.inserts, first.counters.inserts);
        EXPECT_EQ(r.counters.evictions, first.counters.evictions);
        EXPECT_EQ(r.counters.entries, first.counters.entries);
        EXPECT_EQ(r.counters.bytes, first.counters.bytes);
        EXPECT_EQ(r.resident, first.resident);
    }
}

TEST(SolveBatch, FirstFailingRequestThrowsTheSameAtAnyJobs)
{
    const std::pair<std::string, std::string> infeasible =
        runError(infeasibleCache());
    const std::vector<MemoryConfig> base = fiveGroupBatch();
    for (const std::size_t at : {std::size_t(0), base.size() / 2,
                                 base.size()}) {
        std::vector<MemoryConfig> batch = base;
        batch.insert(batch.begin() + std::ptrdiff_t(at), infeasibleCache());
        for (const int jobs : {1, 2, 8}) {
            SCOPED_TRACE("at " + std::to_string(at) + " jobs " +
                         std::to_string(jobs));
            try {
                (void)SolverEngine(SolverOptions{jobs})
                    .solveBatch(batch);
                ADD_FAILURE() << "the batch did not throw";
            } catch (const InfeasibleConfig &e) {
                EXPECT_EQ(e.what(), infeasible.second);
            }
        }
    }

    // Two failures: the earlier request's error is the one thrown,
    // though the weight-only variant fails inside the first group.
    MemoryConfig bad_weight = sramCache();
    bad_weight.weights.area = std::nan("");
    const std::pair<std::string, std::string> weight = runError(bad_weight);
    for (const int jobs : {1, 2, 8}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const SolverEngine engine(SolverOptions{jobs});
        try {
            (void)engine.solveBatch(
                {commDramChip(), infeasibleCache(), sramCache(), bad_weight});
            ADD_FAILURE() << "the batch did not throw";
        } catch (const std::exception &e) {
            EXPECT_EQ(e.what(), infeasible.second);
        }
        try {
            (void)engine.solveBatch(
                {commDramChip(), sramCache(), bad_weight, infeasibleCache()});
            ADD_FAILURE() << "the batch did not throw";
        } catch (const std::exception &e) {
            EXPECT_EQ(e.what(), weight.second);
        }
    }
}

TEST(SolveBatch, ErrorOutParamFailsOnlyTheFailingRequests)
{
    MemoryConfig bad_weight = sramCache(); // shares sramCache()'s group
    bad_weight.weights.area = std::nan("");
    MemoryConfig bad_node = lpDramCache();
    bad_node.featureNm = 22.0; // outside the technology window
    const std::vector<MemoryConfig> batch = {
        sramCache(),       infeasibleCache(), lpDramCache(), bad_weight,
        infeasibleCache(), bad_node,          commDramChip()};
    for (const int jobs : {1, 4}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        SolveCache cache;
        SolverOptions opts;
        opts.jobs = jobs;
        opts.cache = &cache;
        std::vector<std::exception_ptr> errors;
        BatchStats stats;
        const std::vector<SolveResult> results =
            SolverEngine(opts).solveBatch(batch, &stats, &errors);
        ASSERT_EQ(results.size(), batch.size());
        ASSERT_EQ(errors.size(), batch.size());
        EXPECT_EQ(stats.uniqueSolves, 6u);
        EXPECT_EQ(stats.shareGroups, 5u);
        std::size_t failed = 0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            SCOPED_TRACE("request " + std::to_string(i));
            SolveResult res;
            try {
                res = SolverEngine(SolverOptions{1}).run(batch[i]);
            } catch (const std::exception &) {
                ASSERT_TRUE(errors[i]);
                EXPECT_EQ(errorOf(errors[i]), runError(batch[i]));
                ++failed;
                continue;
            }
            EXPECT_FALSE(errors[i]);
            expectIdenticalResult(results[i], res);
        }
        EXPECT_EQ(failed, 4u);
        // Only what solved is memoized.
        EXPECT_EQ(cache.counters().inserts, 3u);
    }
}

} // namespace
