/**
 * @file
 * Sweep resilience tests: the atomic write helper, the deterministic
 * fault-injection plan, checkpoint record integrity, and the
 * StudyRunner's isolation / watchdog / retry / resume contracts.
 *
 * The load-bearing claims: a faulted run costs exactly one slot (the
 * sweep around it is byte-identical for any jobs count), a cycle
 * budget trips at a deterministic simulated cycle, retries are
 * recorded, torn or alien checkpoint records never load, and a
 * resumed sweep exports the same bytes as an uninterrupted one.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/resilience.hh"
#include "sim/runner.hh"
#include "util/atomic_file.hh"
#include "util/hash.hh"

using namespace archsim;

namespace {

/** One Study for the whole file: its CACTI solves dominate setup. */
class ResilienceTest : public ::testing::Test
{
  public:
    static void SetUpTestSuite() { study_ = new Study(); }
    static void TearDownTestSuite()
    {
        delete study_;
        study_ = nullptr;
    }

    /** Small sweep: 2 configs x 2 workloads, epoch sampling on. */
    static RunnerOptions smallSweep(int jobs)
    {
        RunnerOptions o;
        o.jobs = jobs;
        o.instrPerThread = 3000;
        o.epochCycles = 2000;
        o.configs = {"nol3", "cm_dram_ed"};
        o.workloads = {"ft.B", "cg.C"};
        return o;
    }

    /** A fresh directory under the gtest temp root. */
    static std::string tempDir(const std::string &leaf)
    {
        const std::string dir = ::testing::TempDir() + leaf;
        std::remove(dir.c_str());
        return dir;
    }

    static Study *study_;
};

Study *ResilienceTest::study_ = nullptr;

std::string
sweepJson(const Study &study, const RunnerOptions &opts)
{
    const StudyRunner runner(study, opts);
    std::ostringstream os;
    exportJson(os, runner.runAll(), runner);
    return os.str();
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/**
 * A RunResult in which every persisted field holds its own value, and
 * whose text needs escaping, so a field the checkpoint record drops,
 * swaps or rounds cannot round-trip.
 */
RunResult
distinctRun()
{
    std::uint64_t n = 0;
    const auto u = [&n] { return ++n; };
    const auto d = [&n] {
        ++n;
        return (n % 2 ? 1.0 : -1.0) * static_cast<double>(n) / 7.0;
    };
    RunResult r;
    r.config = "nol3";
    r.workload = "ft.B";
    r.status = RunStatus::TimedOut;
    r.attempts = static_cast<int>(u());
    r.error = {"line one\nline \"two\"\t\\ \x01 \xc3\xa9", "sim \\ phase",
               u()};
    SimStats &s = r.stats;
    s.config = r.config;
    s.workload = r.workload;
    for (std::uint64_t *f :
         {&s.cycles, &s.instructions, &s.hier.l1Reads, &s.hier.l1Writes,
          &s.hier.l2Reads, &s.hier.l2Writes, &s.hier.l2Misses,
          &s.hier.xbarTransfers, &s.hier.c2cTransfers,
          &s.dram.activates, &s.dram.reads, &s.dram.writes,
          &s.dram.rowHits, &s.dram.busBytes, &s.dram.powerDownEntries,
          &s.dram.powerDownCycles, &s.dram.refreshes, &s.dirLive,
          &s.dirCapacity, &s.dirPeakLive, &s.dirEvictions,
          &s.dirEvictionInvals, &s.dirOverflows, &s.dirDemotions,
          &s.dirImplicitSparse, &s.llcReads, &s.llcWrites, &s.llcHits,
          &s.llcMisses, &s.llcPageHits, &s.llcPageMisses})
        *f = u();
    for (double *f : {&s.ipc, &s.avgReadLatency, &s.fInstruction,
                      &s.fL2, &s.fL3, &s.fMemory, &s.fBarrier, &s.fLock,
                      &s.memPoweredDownFraction})
        *f = d();
    PowerBreakdown &b = r.power;
    for (double *f : {&b.l1Leak, &b.l1Dyn, &b.l2Leak, &b.l2Dyn,
                      &b.xbarLeak, &b.xbarDyn, &b.l3Leak, &b.l3Dyn,
                      &b.l3Refresh, &b.mainDyn, &b.mainStandby,
                      &b.mainRefresh, &b.bus, &b.corePower,
                      &b.execSeconds})
        *f = d();
    r.thermal = {d(), d(), d()};
    for (int k = 0; k < 3; ++k) {
        EpochSample e;
        e.index = static_cast<int>(u());
        for (std::uint64_t *f :
             {&e.beginCycle, &e.endCycle, &e.instructions, &e.l1Reads,
              &e.l1Writes, &e.l2Reads, &e.l2Writes, &e.l2Misses,
              &e.xbarTransfers, &e.llcReads, &e.llcWrites, &e.llcHits,
              &e.llcMisses, &e.dramActivates, &e.dramReads,
              &e.dramWrites, &e.dramRowHits, &e.dramBusBytes})
            *f = u();
        for (double *f : {&e.poweredDownFraction, &e.ipc, &e.l2Mpki,
                          &e.l3Mpki, &e.dramBandwidthGBs,
                          &e.memHierPowerW, &e.stackTempK})
            *f = d();
        r.epochs.push_back(e);
    }
    return r;
}

/** Every persisted RunResult field, compared exactly. */
void
expectSameRun(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.error.message, b.error.message);
    EXPECT_EQ(a.error.phase, b.error.phase);
    EXPECT_EQ(a.error.cycle, b.error.cycle);

    const SimStats &s = a.stats, &t = b.stats;
    EXPECT_EQ(s.config, t.config);
    EXPECT_EQ(s.workload, t.workload);
    EXPECT_EQ(s.cycles, t.cycles);
    EXPECT_EQ(s.instructions, t.instructions);
    EXPECT_EQ(s.ipc, t.ipc);
    EXPECT_EQ(s.avgReadLatency, t.avgReadLatency);
    EXPECT_EQ(s.fInstruction, t.fInstruction);
    EXPECT_EQ(s.fL2, t.fL2);
    EXPECT_EQ(s.fL3, t.fL3);
    EXPECT_EQ(s.fMemory, t.fMemory);
    EXPECT_EQ(s.fBarrier, t.fBarrier);
    EXPECT_EQ(s.fLock, t.fLock);
    EXPECT_EQ(s.hier.l1Reads, t.hier.l1Reads);
    EXPECT_EQ(s.hier.l1Writes, t.hier.l1Writes);
    EXPECT_EQ(s.hier.l2Reads, t.hier.l2Reads);
    EXPECT_EQ(s.hier.l2Writes, t.hier.l2Writes);
    EXPECT_EQ(s.hier.l2Misses, t.hier.l2Misses);
    EXPECT_EQ(s.hier.xbarTransfers, t.hier.xbarTransfers);
    EXPECT_EQ(s.hier.c2cTransfers, t.hier.c2cTransfers);
    EXPECT_EQ(s.dram.activates, t.dram.activates);
    EXPECT_EQ(s.dram.reads, t.dram.reads);
    EXPECT_EQ(s.dram.writes, t.dram.writes);
    EXPECT_EQ(s.dram.rowHits, t.dram.rowHits);
    EXPECT_EQ(s.dram.busBytes, t.dram.busBytes);
    EXPECT_EQ(s.dram.powerDownEntries, t.dram.powerDownEntries);
    EXPECT_EQ(s.dram.powerDownCycles, t.dram.powerDownCycles);
    EXPECT_EQ(s.dram.refreshes, t.dram.refreshes);
    EXPECT_EQ(s.dirLive, t.dirLive);
    EXPECT_EQ(s.dirCapacity, t.dirCapacity);
    EXPECT_EQ(s.dirPeakLive, t.dirPeakLive);
    EXPECT_EQ(s.dirEvictions, t.dirEvictions);
    EXPECT_EQ(s.dirEvictionInvals, t.dirEvictionInvals);
    EXPECT_EQ(s.dirOverflows, t.dirOverflows);
    EXPECT_EQ(s.dirDemotions, t.dirDemotions);
    EXPECT_EQ(s.dirImplicitSparse, t.dirImplicitSparse);
    EXPECT_EQ(s.memPoweredDownFraction, t.memPoweredDownFraction);
    EXPECT_EQ(s.llcReads, t.llcReads);
    EXPECT_EQ(s.llcWrites, t.llcWrites);
    EXPECT_EQ(s.llcHits, t.llcHits);
    EXPECT_EQ(s.llcMisses, t.llcMisses);
    EXPECT_EQ(s.llcPageHits, t.llcPageHits);
    EXPECT_EQ(s.llcPageMisses, t.llcPageMisses);

    const PowerBreakdown &p = a.power, &q = b.power;
    EXPECT_EQ(p.l1Leak, q.l1Leak);
    EXPECT_EQ(p.l1Dyn, q.l1Dyn);
    EXPECT_EQ(p.l2Leak, q.l2Leak);
    EXPECT_EQ(p.l2Dyn, q.l2Dyn);
    EXPECT_EQ(p.xbarLeak, q.xbarLeak);
    EXPECT_EQ(p.xbarDyn, q.xbarDyn);
    EXPECT_EQ(p.l3Leak, q.l3Leak);
    EXPECT_EQ(p.l3Dyn, q.l3Dyn);
    EXPECT_EQ(p.l3Refresh, q.l3Refresh);
    EXPECT_EQ(p.mainDyn, q.mainDyn);
    EXPECT_EQ(p.mainStandby, q.mainStandby);
    EXPECT_EQ(p.mainRefresh, q.mainRefresh);
    EXPECT_EQ(p.bus, q.bus);
    EXPECT_EQ(p.corePower, q.corePower);
    EXPECT_EQ(p.execSeconds, q.execSeconds);

    EXPECT_EQ(a.thermal.maxTemp, b.thermal.maxTemp);
    EXPECT_EQ(a.thermal.maxTempTopDie, b.thermal.maxTempTopDie);
    EXPECT_EQ(a.thermal.maxTempBottomDie, b.thermal.maxTempBottomDie);

    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t k = 0; k < a.epochs.size(); ++k) {
        const EpochSample &e = a.epochs[k], &f = b.epochs[k];
        EXPECT_EQ(e.index, f.index);
        EXPECT_EQ(e.beginCycle, f.beginCycle);
        EXPECT_EQ(e.endCycle, f.endCycle);
        EXPECT_EQ(e.instructions, f.instructions);
        EXPECT_EQ(e.l1Reads, f.l1Reads);
        EXPECT_EQ(e.l1Writes, f.l1Writes);
        EXPECT_EQ(e.l2Reads, f.l2Reads);
        EXPECT_EQ(e.l2Writes, f.l2Writes);
        EXPECT_EQ(e.l2Misses, f.l2Misses);
        EXPECT_EQ(e.xbarTransfers, f.xbarTransfers);
        EXPECT_EQ(e.llcReads, f.llcReads);
        EXPECT_EQ(e.llcWrites, f.llcWrites);
        EXPECT_EQ(e.llcHits, f.llcHits);
        EXPECT_EQ(e.llcMisses, f.llcMisses);
        EXPECT_EQ(e.dramActivates, f.dramActivates);
        EXPECT_EQ(e.dramReads, f.dramReads);
        EXPECT_EQ(e.dramWrites, f.dramWrites);
        EXPECT_EQ(e.dramRowHits, f.dramRowHits);
        EXPECT_EQ(e.dramBusBytes, f.dramBusBytes);
        EXPECT_EQ(e.poweredDownFraction, f.poweredDownFraction);
        EXPECT_EQ(e.ipc, f.ipc);
        EXPECT_EQ(e.l2Mpki, f.l2Mpki);
        EXPECT_EQ(e.l3Mpki, f.l3Mpki);
        EXPECT_EQ(e.dramBandwidthGBs, f.dramBandwidthGBs);
        EXPECT_EQ(e.memHierPowerW, f.memHierPowerW);
        EXPECT_EQ(e.stackTempK, f.stackTempK);
    }
}

/** @p bytes with line @p key replaced by @p line, crc recomputed. */
std::string
editLine(std::string bytes, const std::string &key,
         const std::string &line)
{
    const std::size_t at = bytes.find("\n" + key + " ") + 1;
    bytes.replace(at, bytes.find('\n', at) - at, line);
    const std::string body = bytes.substr(0, bytes.rfind("crc "));
    return body + "crc " +
           cactid::util::hex16(cactid::util::fnv1a64(body)) + "\n";
}

} // namespace

// ---------------------------------------------------------------- //
// util/atomic_file.hh                                              //
// ---------------------------------------------------------------- //

TEST(AtomicFileTest, WriteReadOverwrite)
{
    const std::string path = ::testing::TempDir() + "atomic_wro.txt";
    std::string err;
    ASSERT_TRUE(cactid::util::writeFileAtomic(path, "first", &err))
        << err;
    EXPECT_EQ(slurp(path), "first");
    ASSERT_TRUE(cactid::util::writeFileAtomic(path, "second", &err));
    EXPECT_EQ(slurp(path), "second");
    // No temporary survives a successful write.
    std::string tmp_probe;
    EXPECT_FALSE(cactid::util::readFile(
        path + ".tmp." + std::to_string(::getpid()), tmp_probe));
}

TEST(AtomicFileTest, RenderCallbackVariant)
{
    const std::string path = ::testing::TempDir() + "atomic_cb.txt";
    std::string err;
    ASSERT_TRUE(cactid::util::writeFileAtomic(
        path, [](std::ostream &os) { os << "rendered " << 42; },
        &err))
        << err;
    EXPECT_EQ(slurp(path), "rendered 42");
}

TEST(AtomicFileTest, FailedRenderLeavesTargetUntouched)
{
    const std::string path = ::testing::TempDir() + "atomic_fail.txt";
    std::string err;
    ASSERT_TRUE(cactid::util::writeFileAtomic(path, "keep me", &err));
    EXPECT_FALSE(cactid::util::writeFileAtomic(
        path,
        [](std::ostream &os) { os.setstate(std::ios::failbit); },
        &err));
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(slurp(path), "keep me");
}

TEST(AtomicFileTest, MissingDirectoryReportsError)
{
    std::string err;
    EXPECT_FALSE(cactid::util::writeFileAtomic(
        ::testing::TempDir() + "no-such-dir/x.txt", "data", &err));
    EXPECT_NE(err.find("x.txt"), std::string::npos);
}

// ---------------------------------------------------------------- //
// FaultPlan                                                        //
// ---------------------------------------------------------------- //

TEST(FaultPlanTest, ParsesEverySiteAndModifier)
{
    const FaultPlan p =
        FaultPlan::parse("3@timeout:8000,0@solve,2@step:5000x1,1@export");
    ASSERT_EQ(p.faults.size(), 4u);

    const FaultSpec *solve = p.find(0, FaultSite::Solve);
    ASSERT_NE(solve, nullptr);
    EXPECT_EQ(solve->action, FaultAction::Throw);

    const FaultSpec *step = p.find(2, FaultSite::Step);
    ASSERT_NE(step, nullptr);
    EXPECT_EQ(step->cycle, 5000u);
    EXPECT_EQ(step->failAttempts, 1); // transient: attempt 2 passes
    EXPECT_TRUE(p.fires(2, FaultSite::Step, 1));
    EXPECT_FALSE(p.fires(2, FaultSite::Step, 2));

    const FaultSpec *to = p.find(3, FaultSite::Step);
    ASSERT_NE(to, nullptr);
    EXPECT_EQ(to->action, FaultAction::Timeout);
    EXPECT_EQ(to->cycle, 8000u);

    EXPECT_NE(p.find(1, FaultSite::Export), nullptr);
    EXPECT_EQ(p.find(9, FaultSite::Solve), nullptr);
}

TEST(FaultPlanTest, CanonicalRoundTrips)
{
    const std::string spec = "3@timeout:8000,0@solve,2@step:5000x1";
    const FaultPlan p = FaultPlan::parse(spec);
    const std::string canon = p.canonical();
    // Canonical form is sorted by run index and itself parseable.
    EXPECT_LT(canon.find("0@solve"), canon.find("2@step"));
    EXPECT_EQ(FaultPlan::parse(canon).canonical(), canon);
}

TEST(FaultPlanTest, RejectsMalformedSpecs)
{
    EXPECT_THROW(FaultPlan::parse("banana"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("1@bogus"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("x@solve"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("1@step:abc"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("1@solve,,2@solve"),
                 std::invalid_argument);
}

TEST(FaultPlanTest, NumbersMustBeWholeUnsignedDecimals)
{
    // strtoull used to skip spaces, accept '+' and wrap '-1'.
    for (const char *spec :
         {"-1@solve", " 1@solve", "+1@solve", "99999999999999999999@solve",
          "1@step: 5", "1@step:-5", "1@step:5x", "1@step:5x-1"})
        EXPECT_THROW(FaultPlan::parse(spec), std::invalid_argument)
            << spec;
    EXPECT_EQ(FaultPlan::parse("1@step:5x2").canonical(), "1@step:5x2");
}

TEST(FaultPlanTest, SeededPlansAreReproducible)
{
    const FaultPlan a = FaultPlan::seeded(7, 48, 3);
    const FaultPlan b = FaultPlan::seeded(7, 48, 3);
    EXPECT_EQ(a.canonical(), b.canonical());
    ASSERT_EQ(a.faults.size(), 3u);
    for (std::size_t i = 0; i < a.faults.size(); ++i) {
        EXPECT_LT(a.faults[i].run, 48u);
        if (i) {
            EXPECT_LT(a.faults[i - 1].run, a.faults[i].run);
        }
    }
    EXPECT_NE(FaultPlan::seeded(8, 48, 3).canonical(), a.canonical());
}

// ---------------------------------------------------------------- //
// CheckpointStore                                                  //
// ---------------------------------------------------------------- //

TEST_F(ResilienceTest, CheckpointRoundTripIsExact)
{
    const StudyRunner runner(*study_, smallSweep(1));
    const RunResult r = runner.runOne("nol3", "ft.B");

    CheckpointStore store(tempDir("ckpt_roundtrip"),
                          runner.fingerprint());
    std::string err;
    ASSERT_TRUE(store.ensureDir(&err)) << err;
    ASSERT_TRUE(store.save(r, &err)) << err;

    RunResult back;
    ASSERT_EQ(store.load("nol3", "ft.B", back),
              CheckpointStore::Load::Loaded);
    EXPECT_EQ(back.status, RunStatus::Ok);
    EXPECT_EQ(back.attempts, r.attempts);
    EXPECT_EQ(back.stats.cycles, r.stats.cycles);
    EXPECT_EQ(back.stats.ipc, r.stats.ipc); // bit-exact via %.17g
    EXPECT_EQ(back.power.edp(), r.power.edp());
    EXPECT_EQ(back.thermal.maxTemp, r.thermal.maxTemp);
    ASSERT_EQ(back.epochs.size(), r.epochs.size());
    for (std::size_t e = 0; e < r.epochs.size(); ++e) {
        EXPECT_EQ(back.epochs[e].beginCycle, r.epochs[e].beginCycle);
        EXPECT_EQ(back.epochs[e].ipc, r.epochs[e].ipc);
        EXPECT_EQ(back.epochs[e].memHierPowerW,
                  r.epochs[e].memHierPowerW);
    }
}

TEST(ResilienceFormat, EveryFieldRoundTrips)
{
    const RunResult want = distinctRun();
    const CheckpointStore store("unused", "fp-test");
    const std::string bytes = store.encode(want);
    EXPECT_EQ(bytes.rfind("cactid-ckpt-v2\n", 0), 0u);
    RunResult out;
    ASSERT_EQ(store.decode(bytes, out), CheckpointStore::Load::Loaded);
    expectSameRun(out, want);
    EXPECT_EQ(store.encode(out), bytes);
}

TEST(ResilienceFormat, HostileRecordsAreInvalidNotFatal)
{
    const CheckpointStore store("unused", "fp-test");
    const std::string good = store.encode(distinctRun());
    RunResult out;
    ASSERT_EQ(store.decode(good, out), CheckpointStore::Load::Loaded);

    // Each record below carries a valid crc: only the reader's own
    // checks stand between it and the sweep.
    for (const auto &[key, line] :
         std::vector<std::pair<std::string, std::string>>{
             {"epochs", "epochs 1152921504606846976"},
             {"epochs", "epochs 4"},
             {"attempts", "attempts 1x"},
             {"attempts", "attempts 0"},
             {"attempts", "attempts 99999999999"},
             {"error.cycle", "error.cycle 12abc"},
             {"error.cycle", "error.cycle -1"},
             {"status", "status exploded"},
             {"key", "key 0000000000000000"},
             {"stats", "stats 1 2 3"}}) {
        EXPECT_EQ(store.decode(editLine(good, key, line), out),
                  CheckpointStore::Load::Invalid)
            << line;
    }
    // A v1 record (no sparse-directory counters) re-runs like any
    // alien record.
    std::string v1 = good;
    v1.replace(0, std::string("cactid-ckpt-v2").size(), "cactid-ckpt-v1");
    const std::string body = v1.substr(0, v1.rfind("crc "));
    v1 = body + "crc " +
         cactid::util::hex16(cactid::util::fnv1a64(body)) + "\n";
    EXPECT_EQ(store.decode(v1, out), CheckpointStore::Load::Invalid);
}

TEST_F(ResilienceTest, CheckpointPersistsFailureRecords)
{
    RunResult r;
    r.config = "nol3";
    r.workload = "ft.B";
    r.status = RunStatus::TimedOut;
    r.attempts = 2;
    r.error = {"cycle budget exceeded", "sim", 5000};

    CheckpointStore store(tempDir("ckpt_failrec"), "fp-test");
    std::string err;
    ASSERT_TRUE(store.ensureDir(&err)) << err;
    ASSERT_TRUE(store.save(r, &err)) << err;

    RunResult back;
    ASSERT_EQ(store.load("nol3", "ft.B", back),
              CheckpointStore::Load::Loaded);
    EXPECT_EQ(back.status, RunStatus::TimedOut);
    EXPECT_EQ(back.attempts, 2);
    EXPECT_EQ(back.error.message, "cycle budget exceeded");
    EXPECT_EQ(back.error.phase, "sim");
    EXPECT_EQ(back.error.cycle, 5000u);
}

TEST_F(ResilienceTest, CheckpointRejectsTornAndCorruptRecords)
{
    const StudyRunner runner(*study_, smallSweep(1));
    const RunResult r = runner.runOne("nol3", "ft.B");
    CheckpointStore store(tempDir("ckpt_corrupt"),
                          runner.fingerprint());
    const std::string good = store.encode(r);

    RunResult out;
    // Torn write: any truncation must be rejected, not half-loaded.
    for (std::size_t cut : {std::size_t(0), std::size_t(1),
                            good.size() / 2, good.size() - 1}) {
        EXPECT_EQ(store.decode(good.substr(0, cut), out),
                  CheckpointStore::Load::Invalid)
            << "cut=" << cut;
    }
    // A single flipped byte breaks the trailing checksum.
    std::string flipped = good;
    flipped[good.size() / 3] ^= 0x01;
    EXPECT_EQ(store.decode(flipped, out),
              CheckpointStore::Load::Invalid);
    // Appended garbage is torn too (checksum covers the whole body).
    EXPECT_EQ(store.decode(good + "trailing\n", out),
              CheckpointStore::Load::Invalid);
    // The untouched record still loads.
    EXPECT_EQ(store.decode(good, out), CheckpointStore::Load::Loaded);
}

TEST_F(ResilienceTest, CheckpointRejectsRecordsFromOtherSweeps)
{
    const StudyRunner runner(*study_, smallSweep(1));
    const RunResult r = runner.runOne("nol3", "ft.B");
    const std::string dir = tempDir("ckpt_alien");

    CheckpointStore store(dir, runner.fingerprint());
    std::string err;
    ASSERT_TRUE(store.ensureDir(&err)) << err;
    ASSERT_TRUE(store.save(r, &err)) << err;

    // Same record bytes, read under a different sweep fingerprint:
    // the key no longer matches, so the record must not load.
    CheckpointStore other(dir, runner.fingerprint() + "|different");
    RunResult out;
    EXPECT_NE(other.load("nol3", "ft.B", out),
              CheckpointStore::Load::Loaded);
}

TEST_F(ResilienceTest, CheckpointMissingRecordIsMissing)
{
    CheckpointStore store(tempDir("ckpt_missing"), "fp");
    std::string err;
    ASSERT_TRUE(store.ensureDir(&err)) << err;
    RunResult out;
    EXPECT_EQ(store.load("nol3", "ft.B", out),
              CheckpointStore::Load::Missing);
}

// ---------------------------------------------------------------- //
// StudyRunner isolation / watchdog / retry                         //
// ---------------------------------------------------------------- //

TEST_F(ResilienceTest, FaultedRunCostsExactlyOneSlot)
{
    RunnerOptions opts = smallSweep(1);
    opts.faultPlan = FaultPlan::parse("1@solve");
    const StudyRunner runner(*study_, opts);
    const std::vector<RunResult> runs = runner.runAll();
    ASSERT_EQ(runs.size(), 4u);

    EXPECT_EQ(runs[1].status, RunStatus::Failed);
    EXPECT_EQ(runs[1].error.phase, "solve");
    EXPECT_NE(runs[1].error.message.find("injected"),
              std::string::npos);
    EXPECT_EQ(runs[1].config, "cm_dram_ed"); // slot stays labeled
    EXPECT_EQ(runs[1].stats.cycles, 0u);     // and zeroed

    for (std::size_t i : {std::size_t(0), std::size_t(2),
                          std::size_t(3)}) {
        EXPECT_EQ(runs[i].status, RunStatus::Ok) << "slot " << i;
        EXPECT_GT(runs[i].stats.cycles, 0u);
    }
}

TEST_F(ResilienceTest, FaultedSweepIsJobsIndependent)
{
    RunnerOptions serial = smallSweep(1);
    serial.faultPlan = FaultPlan::parse("0@step:3000,2@timeout:4000");
    RunnerOptions pooled = serial;
    pooled.jobs = 4;
    EXPECT_EQ(sweepJson(*study_, serial), sweepJson(*study_, pooled));
}

TEST_F(ResilienceTest, FaultedSweepExportsV2Schema)
{
    RunnerOptions opts = smallSweep(1);
    opts.faultPlan = FaultPlan::parse("1@solve");
    const std::string json = sweepJson(*study_, opts);
    EXPECT_NE(json.find("cactid-study-v2"), std::string::npos);
    EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
    EXPECT_NE(json.find("\"phase\": \"solve\""), std::string::npos);

    // Clean sweeps keep the pinned v1 bytes, whatever options ran.
    EXPECT_NE(sweepJson(*study_, smallSweep(1)).find("cactid-study-v1"),
              std::string::npos);

    const StudyRunner runner(*study_, opts);
    std::ostringstream csv;
    exportSummaryCsv(csv, runner.runAll());
    EXPECT_NE(csv.str().find(",status,attempts"), std::string::npos);
    EXPECT_NE(csv.str().find("failed,1"), std::string::npos);
}

TEST_F(ResilienceTest, CycleBudgetTripsDeterministically)
{
    RunnerOptions serial = smallSweep(1);
    serial.maxCycles = 5000;
    const StudyRunner a(*study_, serial);
    const std::vector<RunResult> ra = a.runAll();
    for (const RunResult &r : ra) {
        EXPECT_EQ(r.status, RunStatus::TimedOut);
        EXPECT_EQ(r.error.phase, "sim");
        EXPECT_GE(r.error.cycle, 5000u);
    }

    RunnerOptions pooled = serial;
    pooled.jobs = 4;
    const StudyRunner b(*study_, pooled);
    const std::vector<RunResult> rb = b.runAll();
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i)
        EXPECT_EQ(ra[i].error.cycle, rb[i].error.cycle) << i;
}

TEST_F(ResilienceTest, TransientFaultRecoversUnderRetry)
{
    RunnerOptions opts = smallSweep(1);
    opts.faultPlan = FaultPlan::parse("0@solvex1");
    opts.retry.maxAttempts = 2;
    const StudyRunner runner(*study_, opts);
    const std::vector<RunResult> runs = runner.runAll();
    EXPECT_EQ(runs[0].status, RunStatus::Ok);
    EXPECT_EQ(runs[0].attempts, 2);
    EXPECT_GT(runs[0].stats.cycles, 0u);
    EXPECT_EQ(runs[1].attempts, 1); // untouched runs never retry

    // The retried sweep serializes as v2 (attempts != 1 is an event
    // worth recording) with every run Ok.
    std::ostringstream os;
    exportJson(os, runs, runner);
    EXPECT_NE(os.str().find("cactid-study-v2"), std::string::npos);
    EXPECT_EQ(os.str().find("\"status\": \"failed\""),
              std::string::npos);
}

TEST_F(ResilienceTest, PersistentFaultExhaustsAttempts)
{
    RunnerOptions opts = smallSweep(1);
    opts.faultPlan = FaultPlan::parse("0@solve");
    opts.retry.maxAttempts = 3;
    const StudyRunner runner(*study_, opts);
    const std::vector<RunResult> runs = runner.runAll();
    EXPECT_EQ(runs[0].status, RunStatus::Failed);
    EXPECT_EQ(runs[0].attempts, 3);
}

TEST_F(ResilienceTest, TimeoutsOnlyRetryWhenAsked)
{
    RunnerOptions opts = smallSweep(1);
    opts.configs = {"nol3"};
    opts.workloads = {"ft.B"};
    opts.faultPlan = FaultPlan::parse("0@timeout:3000x1");
    opts.retry.maxAttempts = 2;

    const StudyRunner no_retry(*study_, opts);
    EXPECT_EQ(no_retry.runAll()[0].status, RunStatus::TimedOut);
    EXPECT_EQ(no_retry.runAll()[0].attempts, 1);

    opts.retry.retryTimeouts = true;
    const StudyRunner retried(*study_, opts);
    const RunResult r = retried.runAll()[0];
    EXPECT_EQ(r.status, RunStatus::Ok);
    EXPECT_EQ(r.attempts, 2);
}

// ---------------------------------------------------------------- //
// Resume identity                                                  //
// ---------------------------------------------------------------- //

TEST_F(ResilienceTest, ResumedSweepIsByteIdenticalToUninterrupted)
{
    const std::string dir = tempDir("ckpt_resume");

    // Pass 1: one run dies mid-simulation; the other three
    // checkpoint.  (The failed slot also writes a record, which
    // resume must ignore.)
    RunnerOptions first = smallSweep(2);
    first.faultPlan = FaultPlan::parse("2@step:3000");
    {
        const StudyRunner probe(*study_, first);
        CheckpointStore store(dir, probe.fingerprint());
        std::string err;
        ASSERT_TRUE(store.ensureDir(&err)) << err;
        first.onRunComplete = [&store](std::size_t,
                                       const RunResult &r) {
            std::string save_err;
            ASSERT_TRUE(store.save(r, &save_err)) << save_err;
        };
        const StudyRunner runner(*study_, first);
        const std::vector<RunResult> runs = runner.runAll();
        EXPECT_EQ(runs[2].status, RunStatus::Failed);
    }

    // Pass 2: resume without the fault.  Only the failed slot may
    // execute; the sweep bytes must match a clean uninterrupted run.
    RunnerOptions second = smallSweep(2);
    std::atomic<int> executed{0};
    second.tweakHierarchy = [&executed](const std::string &,
                                        HierarchyParams &) {
        ++executed;
    };
    const CheckpointStore store(
        dir, StudyRunner(*study_, second).fingerprint());
    second.reuseRun = [store](std::size_t, const std::string &config,
                              const std::string &workload,
                              RunResult &out) {
        RunResult r;
        if (store.load(config, workload, r) !=
            CheckpointStore::Load::Loaded)
            return false;
        if (!r.ok())
            return false;
        out = std::move(r);
        return true;
    };
    const std::string resumed = sweepJson(*study_, second);
    EXPECT_EQ(executed.load(), 1);

    const std::string clean = sweepJson(*study_, smallSweep(2));
    EXPECT_EQ(resumed, clean);
    EXPECT_NE(resumed.find("cactid-study-v1"), std::string::npos);
}

TEST_F(ResilienceTest, ResumedManyCoreRegistryMatchesUninterrupted)
{
    // Past 16 cores the run uses the sparse directory, whose sim.dir.*
    // counters must survive the checkpoint like every other stat.
    const auto options = [] {
        RunnerOptions o;
        o.jobs = 1;
        o.instrPerThread = 2000;
        o.nCores = 32;
        o.threadsPerCore = 1;
        o.configs = {"nol3"};
        o.workloads = {"ft.B"};
        return o;
    };
    const auto registry = [](const StudyRunner &runner) {
        std::ostringstream os;
        exportRegistry(os, runner.runAll(), runner);
        return os.str();
    };
    const std::string dir = tempDir("ckpt_manycore");
    const CheckpointStore store(
        dir, StudyRunner(*study_, options()).fingerprint());
    std::string err;
    ASSERT_TRUE(store.ensureDir(&err)) << err;

    RunnerOptions first = options();
    first.onRunComplete = [&store](std::size_t, const RunResult &r) {
        std::string save_err;
        ASSERT_TRUE(store.save(r, &save_err)) << save_err;
    };
    const std::string clean = registry(StudyRunner(*study_, first));
    EXPECT_NE(clean.find("\"sim.dir.capacity\": 65536"),
              std::string::npos);

    RunnerOptions second = options();
    std::atomic<int> executed{0};
    second.tweakHierarchy = [&executed](const std::string &,
                                        HierarchyParams &) {
        ++executed;
    };
    second.reuseRun = [&store](std::size_t, const std::string &config,
                               const std::string &workload,
                               RunResult &out) {
        return store.load(config, workload, out) ==
               CheckpointStore::Load::Loaded;
    };
    EXPECT_EQ(registry(StudyRunner(*study_, second)), clean);
    EXPECT_EQ(executed.load(), 0);
}
