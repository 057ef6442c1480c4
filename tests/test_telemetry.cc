/**
 * @file
 * Telemetry and latency-histogram tests: Histogram edge cases and
 * merge semantics, the sim.lat.* distributions and their counter
 * identities, the determinism contract of the telemetry stream (all
 * non-"host" fields byte-identical for any jobs count), the
 * obs.trace.dropped counter, and the profile-summary percentile
 * columns.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.hh"
#include "obs/registry.hh"
#include "sim/runner.hh"
#include "tools/report.hh"

using namespace archsim;
namespace obs = cactid::obs;

// --- Histogram edge cases -----------------------------------------------

TEST(Histogram, DefaultCtorIsSingleOverflowBucket)
{
    obs::Histogram h;
    h.observe(3.5);
    h.observe(-1.0);
    ASSERT_EQ(h.counts().size(), 1u);
    EXPECT_EQ(h.counts()[0], 2u);
    EXPECT_EQ(h.total(), 2u);
    // No finite bound to report a quantile against.
    EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, EmptyQuantileIsZero)
{
    const obs::Histogram h({1.0, 2.0, 4.0});
    EXPECT_EQ(h.quantile(0.0), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.quantile(1.0), 0.0);
}

TEST(Histogram, QuantileIsNearestRankOverBounds)
{
    obs::Histogram h({1.0, 2.0, 4.0});
    h.observe(1.0); // bucket 0
    h.observe(2.0); // bucket 1
    h.observe(2.0); // bucket 1
    h.observe(3.0); // bucket 2
    EXPECT_EQ(h.quantile(0.25), 1.0); // rank 1
    EXPECT_EQ(h.quantile(0.50), 2.0); // rank 2
    EXPECT_EQ(h.quantile(0.75), 2.0); // rank 3
    EXPECT_EQ(h.quantile(1.00), 4.0); // rank 4

    // Overflow observations saturate at the largest finite bound.
    h.observe(1e9);
    EXPECT_EQ(h.quantile(1.00), 4.0);
}

TEST(Histogram, MergeRejectsMismatchedBounds)
{
    obs::Histogram a({1.0, 2.0});
    const obs::Histogram b({1.0, 2.0, 4.0});
    try {
        a.merge(b);
        FAIL() << "merge accepted mismatched bounds";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "mismatched bucket bounds"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Histogram, MergeThenDumpMatchesDirectRecording)
{
    // Integer observations split across two shards vs recorded
    // directly: the dumped bytes must be identical.
    obs::Registry direct, merged;
    obs::Histogram &d = direct.histogram("x", {1.0, 4.0, 16.0});
    obs::Histogram a({1.0, 4.0, 16.0}), b({1.0, 4.0, 16.0});
    for (int i = 0; i < 40; ++i) {
        const double v = double((i * 7) % 23);
        d.observe(v);
        (i % 2 ? a : b).observe(v);
    }
    a.merge(b);
    merged.histogram("x", {1.0, 4.0, 16.0}).merge(a);

    std::ostringstream da, db;
    direct.writeJsonObject(da);
    merged.writeJsonObject(db);
    EXPECT_EQ(da.str(), db.str());
}

TEST(Histogram, FromPartsValidates)
{
    EXPECT_THROW(obs::Histogram::fromParts({1.0, 2.0}, {1, 2}, 3, 0.0),
                 std::invalid_argument); // counts != bounds + 1
    EXPECT_THROW(
        obs::Histogram::fromParts({1.0, 2.0}, {1, 2, 3}, 7, 0.0),
        std::invalid_argument); // counts don't sum to total

    const obs::Histogram h =
        obs::Histogram::fromParts({1.0, 2.0}, {1, 2, 3}, 6, 11.5);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_EQ(h.sum(), 11.5);
    EXPECT_EQ(h.counts()[2], 3u);
}

TEST(Registry, MergeAddsAndRejectsMismatchedBounds)
{
    obs::Registry a, b;
    a.counter("n") = 3;
    b.counter("n") = 4;
    b.counter("only_b") = 1;
    a.gauge("g") = 0.5;
    b.gauge("g") = 0.25;
    b.histogram("h", {1.0}).observe(0.5);
    a.merge(b);
    EXPECT_EQ(a.counterValue("n"), 7u);
    EXPECT_EQ(a.counterValue("only_b"), 1u);
    EXPECT_EQ(a.gauges().at("g"), 0.75);
    EXPECT_EQ(a.histograms().at("h").total(), 1u);

    // A bounds mismatch throws and leaves the target unchanged.
    obs::Registry c;
    c.histogram("h", {1.0, 2.0});
    c.counter("n") = 100;
    EXPECT_THROW(a.merge(c), std::invalid_argument);
    EXPECT_EQ(a.counterValue("n"), 7u);
}

// --- Profile summary percentiles ----------------------------------------

TEST(ProfileSummary, HasPercentileColumns)
{
    std::vector<obs::TraceEvent> events;
    for (std::uint64_t d : {10, 20, 30, 40, 50, 60, 70, 80, 90, 100}) {
        obs::TraceEvent e;
        e.name = "span";
        e.ph = 'X';
        e.dur = d;
        events.push_back(e);
    }
    std::ostringstream os;
    obs::writeProfileSummary(os, events);
    const std::string out = os.str();
    EXPECT_NE(out.find("p50(us)"), std::string::npos) << out;
    EXPECT_NE(out.find("p90(us)"), std::string::npos) << out;
    EXPECT_NE(out.find("p99(us)"), std::string::npos) << out;
    // Nearest rank over 10 spans: p50 = 5th = 50, p90 = 9th = 90.
    EXPECT_NE(out.find("50"), std::string::npos);
    EXPECT_NE(out.find("90"), std::string::npos);
}

// --- Sweep fixtures ------------------------------------------------------

namespace {

class TelemetryTest : public ::testing::Test
{
  public:
    static void SetUpTestSuite() { study_ = new Study(); }
    static void TearDownTestSuite()
    {
        delete study_;
        study_ = nullptr;
    }

    /** 2 configs x 2 workloads, no epochs: fast but full-path. */
    static RunnerOptions smallSweep(int jobs)
    {
        RunnerOptions o;
        o.jobs = jobs;
        o.instrPerThread = 3000;
        o.epochCycles = 0;
        o.thermal = false;
        o.configs = {"nol3", "sram"};
        o.workloads = {"ft.B", "is.C"};
        return o;
    }

    static Study *study_;
};

Study *TelemetryTest::study_ = nullptr;

/**
 * Canonicalize a telemetry stream for cross-jobs comparison: drop
 * heartbeat records (pure host state), strip each record's trailing
 * "host" object, and order run records by index (completion order is
 * scheduling-dependent; the content is not).
 */
std::vector<std::string>
canonTelemetry(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::vector<std::string> head, runs, tail;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (line.find("\"record\": \"heartbeat\"") !=
            std::string::npos)
            continue;
        const std::size_t host = line.find(", \"host\": {");
        if (host != std::string::npos)
            line = line.substr(0, host) + "}";
        if (line.find("\"record\": \"run\"") != std::string::npos)
            runs.push_back(line);
        else if (line.find("\"record\": \"summary\"") !=
                 std::string::npos)
            tail.push_back(line);
        else
            head.push_back(line);
    }
    std::sort(runs.begin(), runs.end(),
              [](const std::string &a, const std::string &b) {
                  const auto idx = [](const std::string &s) {
                      const std::size_t p = s.find("\"index\": ");
                      return std::strtoull(s.c_str() + p + 9, nullptr,
                                           10);
                  };
                  return idx(a) < idx(b);
              });
    std::vector<std::string> out = head;
    out.insert(out.end(), runs.begin(), runs.end());
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
}

} // namespace

// --- Latency histograms --------------------------------------------------

TEST_F(TelemetryTest, LatencyCountersSatisfyIdentities)
{
    RunnerOptions o = smallSweep(1);
    o.latencyHistograms = true;
    const StudyRunner runner(*study_, o);
    const std::vector<RunResult> runs = runner.runAll();
    ASSERT_EQ(runs.size(), 4u);
    for (const RunResult &r : runs) {
        ASSERT_TRUE(r.latEnabled);
        // Every DRAM access is classified exactly once.
        EXPECT_EQ(r.lat.dramRowHit.total(), r.stats.dram.rowHits);
        EXPECT_EQ(r.lat.dramRowHit.total() + r.lat.dramRowMiss.total(),
                  r.stats.dram.reads + r.stats.dram.writes);
        // Queue delay sampled once per DRAM access.
        EXPECT_EQ(r.lat.dramQueue.total(),
                  r.stats.dram.reads + r.stats.dram.writes);
        // Beyond-L2 classifications partition the L2 demand misses.
        EXPECT_EQ(r.lat.remoteL2.total() + r.lat.l3.total() +
                      r.lat.mem.total(),
                  r.stats.hier.l2Misses);
        // Something was recorded at the near levels.
        EXPECT_GT(r.lat.l1.total(), 0u);
        EXPECT_GT(r.lat.l2.total(), 0u);
    }
}

TEST_F(TelemetryTest, LatencyDisabledByDefault)
{
    const StudyRunner runner(*study_, smallSweep(1));
    const std::vector<RunResult> runs = runner.runAll();
    for (const RunResult &r : runs)
        EXPECT_FALSE(r.latEnabled);

    std::ostringstream reg, json;
    exportRegistry(reg, runs);
    exportJson(json, runs, runner);
    EXPECT_EQ(reg.str().find("sim.lat."), std::string::npos);
    EXPECT_EQ(json.str().find("\"latency\""), std::string::npos);
}

TEST_F(TelemetryTest, LatencyExportsIdenticalAcrossJobs)
{
    const auto sweep = [&](int jobs) {
        RunnerOptions o = smallSweep(jobs);
        o.latencyHistograms = true;
        const StudyRunner runner(*study_, o);
        const std::vector<RunResult> runs = runner.runAll();
        std::ostringstream reg, json, om;
        exportRegistry(reg, runs);
        exportJson(json, runs, runner);
        exportOpenMetrics(om, runs);
        return reg.str() + "\x1f" + json.str() + "\x1f" + om.str();
    };
    const std::string serial = sweep(1);
    EXPECT_EQ(sweep(4), serial);
    EXPECT_NE(serial.find("sim.lat.dram.row_hit"), std::string::npos);
    EXPECT_NE(serial.find("\"latency\""), std::string::npos);
    EXPECT_NE(serial.find("\"p99\""), std::string::npos);
    EXPECT_NE(serial.find("cactid_sim_lat_l1_bucket"),
              std::string::npos);
}

// --- Telemetry stream ----------------------------------------------------

TEST_F(TelemetryTest, StreamDeterministicAcrossJobs)
{
    const auto sweep = [&](int jobs, const std::string &path) {
        RunnerOptions o = smallSweep(jobs);
        o.telemetry.path = path;
        o.telemetry.intervalMs = 60000; // no heartbeats mid-test
        const StudyRunner runner(*study_, o);
        runner.runAll();
    };
    const std::string p1 = ::testing::TempDir() + "telem_j1.jsonl";
    const std::string p4 = ::testing::TempDir() + "telem_j4.jsonl";
    sweep(1, p1);
    sweep(4, p4);
    EXPECT_EQ(canonTelemetry(p1), canonTelemetry(p4));
    std::remove(p1.c_str());
    std::remove(p4.c_str());
}

TEST_F(TelemetryTest, StreamRecordsEveryRunAndASummary)
{
    const std::string path = ::testing::TempDir() + "telem_all.jsonl";
    RunnerOptions o = smallSweep(2);
    o.telemetry.path = path;
    o.telemetry.intervalMs = 60000;
    const StudyRunner runner(*study_, o);
    runner.runAll();

    cactid::tools::TelemetryShard shard;
    std::string err;
    ASSERT_TRUE(cactid::tools::loadTelemetry(path, shard, &err))
        << err;
    EXPECT_EQ(shard.totalRuns, 4u);
    ASSERT_EQ(shard.runs.size(), 4u);
    EXPECT_TRUE(shard.hasSummary);
    EXPECT_EQ(shard.ok, 4u);
    EXPECT_EQ(shard.failed, 0u);
    EXPECT_GT(shard.counters.at("sim.cycles"), 0u);
    for (std::size_t i = 0; i < shard.runs.size(); ++i) {
        EXPECT_EQ(shard.runs[i].index, i);
        EXPECT_EQ(shard.runs[i].status, "ok");
        EXPECT_EQ(shard.runs[i].attempts, 1u);
    }
    std::remove(path.c_str());
}

TEST_F(TelemetryTest, WriteFailureReportsOnceAndSweepContinues)
{
    std::atomic<int> errors{0};
    RunnerOptions o = smallSweep(2);
    o.telemetry.path =
        ::testing::TempDir() + "no-such-dir/telem.jsonl";
    o.telemetry.intervalMs = 60000;
    o.telemetry.onError = [&](const std::string &) { ++errors; };
    const StudyRunner runner(*study_, o);
    const std::vector<RunResult> runs = runner.runAll();
    ASSERT_EQ(runs.size(), 4u);
    for (const RunResult &r : runs)
        EXPECT_TRUE(r.ok());
    EXPECT_EQ(errors.load(), 1);
}

// --- Trace drop counter --------------------------------------------------

TEST_F(TelemetryTest, TraceDropsSurfaceInRegistryAndWarnOnce)
{
#if !CACTID_OBS_TRACING
    GTEST_SKIP() << "tracing compiled out: nothing is recorded";
#endif
    RunnerOptions o = smallSweep(1);
    o.trace = true;
    o.traceCapacity = 8; // tiny ring: guaranteed drops
    const StudyRunner runner(*study_, o);
    const std::vector<RunResult> runs = runner.runAll();
    std::size_t dropped = 0;
    for (const RunResult &r : runs)
        dropped += r.traceDropped;
    ASSERT_GT(dropped, 0u);

    std::ostringstream reg;
    exportRegistry(reg, runs);
    EXPECT_NE(reg.str().find("\"obs.trace.dropped\""),
              std::string::npos);

    // The trace export warns about the incomplete stream (once per
    // process; this is the only exportTraceJson call in this binary).
    ::testing::internal::CaptureStderr();
    std::ostringstream trace;
    exportTraceJson(trace, runs);
    const std::string warning =
        ::testing::internal::GetCapturedStderr();
    EXPECT_NE(warning.find("trace ring dropped"), std::string::npos)
        << warning;
}
