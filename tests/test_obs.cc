/**
 * @file
 * Observability subsystem tests: numeric formatting, the trace ring,
 * the counter registry and its stable dump, the Chrome trace export,
 * build-info stamping, profiling spans, the study trace determinism
 * contract, and the l2Misses == L3-demand-access identity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine_stats.hh"
#include "obs/build_info.hh"
#include "obs/export.hh"
#include "obs/numfmt.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/obs.hh"
#include "sim/runner.hh"

using namespace archsim;
namespace obs = cactid::obs;

// --- Numeric formatting -------------------------------------------------

TEST(NumFmt, DoubleRoundTripsExactly)
{
    const double values[] = {0.0,       -0.0,    1.0 / 3.0,
                             3.14159,   -2.5e17, 1e-300,
                             6.25e-2,   123456789.123456789,
                             1.7976931348623157e308};
    for (const double v : values) {
        const std::string s = obs::fmtDouble(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
}

TEST(NumFmt, DecimalPointIsAlwaysDot)
{
    EXPECT_EQ(obs::fmtDouble(0.5), "0.5");
    EXPECT_EQ(obs::fmtDouble(-1.25), "-1.25");
}

TEST(NumFmt, JsonEscape)
{
    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(obs::jsonEscape("x\ny"), "x\\ny");
    EXPECT_EQ(obs::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

// --- Trace ring ---------------------------------------------------------

TEST(TraceBuffer, KeepsNewestAndCountsDrops)
{
    obs::TraceBuffer buf(4);
    for (std::uint64_t i = 0; i < 10; ++i) {
        obs::TraceEvent e;
        e.name = "e";
        e.ts = i;
        buf.emit(e);
    }
    EXPECT_EQ(buf.capacity(), 4u);
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf.dropped(), 6u);

    const std::vector<obs::TraceEvent> out = buf.events();
    ASSERT_EQ(out.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(out[i].ts, 6u + i); // oldest-first, newest kept
}

TEST(TraceBuffer, TakeDrainsAndResets)
{
    obs::TraceBuffer buf(8);
    obs::TraceEvent e;
    e.name = "e";
    buf.emit(e);
    EXPECT_EQ(buf.take().size(), 1u);
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.dropped(), 0u);
    EXPECT_TRUE(buf.events().empty());
}

// --- Registry -----------------------------------------------------------

TEST(Registry, CountersGaugesHistograms)
{
    obs::Registry r;
    r.counter("a.hits") += 3;
    r.counter("a.hits") += 2;
    r.gauge("a.power_w") = 1.5;
    obs::Histogram &h = r.histogram("a.lat", {10.0, 100.0});
    h.observe(5.0);
    h.observe(50.0);
    h.observe(5000.0); // overflow bucket

    EXPECT_TRUE(r.hasCounter("a.hits"));
    EXPECT_FALSE(r.hasCounter("a.misses"));
    EXPECT_EQ(r.counterValue("a.hits"), 5u);
    EXPECT_EQ(r.counterValue("a.misses"), 0u);
    EXPECT_DOUBLE_EQ(r.gauges().at("a.power_w"), 1.5);

    const obs::Histogram &hh = r.histograms().at("a.lat");
    ASSERT_EQ(hh.counts().size(), 3u);
    EXPECT_EQ(hh.counts()[0], 1u);
    EXPECT_EQ(hh.counts()[1], 1u);
    EXPECT_EQ(hh.counts()[2], 1u);
    EXPECT_EQ(hh.total(), 3u);
    EXPECT_DOUBLE_EQ(hh.sum(), 5055.0);
}

TEST(Registry, DumpIsStableAcrossInsertionOrder)
{
    obs::Registry a;
    a.counter("z.last") = 1;
    a.counter("a.first") = 2;
    a.gauge("m.mid") = 0.25;

    obs::Registry b;
    b.gauge("m.mid") = 0.25;
    b.counter("a.first") = 2;
    b.counter("z.last") = 1;

    std::ostringstream sa, sb;
    a.writeJsonObject(sa);
    b.writeJsonObject(sb);
    EXPECT_EQ(sa.str(), sb.str());
}

TEST(Registry, DumpCarriesSchemaAndBuildHeader)
{
    obs::Registry r;
    r.counter("x.y") = 7;
    std::ostringstream os;
    obs::writeRegistryDump(os, {{"label-1", &r}});
    const std::string dump = os.str();
    EXPECT_NE(dump.find("\"schema\": \"cactid-obs-v1\""),
              std::string::npos);
    EXPECT_NE(dump.find("\"build\":"), std::string::npos);
    EXPECT_NE(dump.find("\"label-1\""), std::string::npos);
    EXPECT_NE(dump.find("\"x.y\": 7"), std::string::npos);
}

TEST(Registry, EngineStatsPublishUnderSolverNamespace)
{
    cactid::EngineStats st;
    st.partitionsEnumerated = 100;
    st.partitionsInfeasible = 40;
    st.solutionsBuilt = 60;
    st.areaPruned = 10;
    st.timePruned = 5;
    st.jobsUsed = 3;
    st.totalSeconds = 0.125;

    obs::Registry r;
    cactid::registerEngineStats(r, st);
    EXPECT_EQ(r.counterValue("solver.partitions_enumerated"), 100u);
    EXPECT_EQ(r.counterValue("solver.partitions_infeasible"), 40u);
    EXPECT_EQ(r.counterValue("solver.solutions_built"), 60u);
    EXPECT_EQ(r.counterValue("solver.area_pruned"), 10u);
    EXPECT_EQ(r.counterValue("solver.time_pruned"), 5u);
    EXPECT_EQ(r.counterValue("solver.jobs_used"), 3u);
    EXPECT_DOUBLE_EQ(r.gauges().at("solver.total_seconds"), 0.125);
}

// --- Build info ---------------------------------------------------------

TEST(BuildInfo, VersionLineNamesToolAndBuild)
{
    const std::string line = obs::versionLine("mytool");
    EXPECT_EQ(line.rfind("mytool ", 0), 0u);
    EXPECT_FALSE(obs::buildInfo().gitDescribe.empty());
    EXPECT_FALSE(obs::buildInfo().compiler.empty());

    std::ostringstream os;
    obs::writeBuildInfoJson(os);
    EXPECT_NE(os.str().find("\"git\":"), std::string::npos);
    EXPECT_NE(os.str().find("\"tracing\":"), std::string::npos);
}

// --- Chrome trace export ------------------------------------------------

namespace {

obs::TraceEvent
makeEvent(const char *name, char ph, std::uint64_t ts,
          std::uint64_t dur, std::uint32_t pid, std::uint32_t tid)
{
    obs::TraceEvent e;
    e.name = name;
    e.cat = "test";
    e.ph = ph;
    e.ts = ts;
    e.dur = dur;
    e.pid = pid;
    e.tid = tid;
    return e;
}

} // namespace

TEST(TraceExport, ChromeDocumentShape)
{
    std::vector<obs::TraceEvent> events;
    events.push_back(makeEvent("span", 'X', 10, 5, 0, 1));
    obs::TraceEvent inst = makeEvent("mark", 'i', 12, 0, 0, 2);
    inst.argName = "line";
    inst.argValue = 42;
    events.push_back(inst);

    obs::TraceMeta meta;
    meta.processes.emplace_back(0u, "wl/cfg");
    meta.clockDomain = "cycles";
    meta.dropped = 3;

    std::ostringstream os;
    obs::writeChromeTrace(os, events, meta);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"schema\": \"cactid-trace-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"traceEvents\":"), std::string::npos);
    EXPECT_NE(doc.find("\"process_name\""), std::string::npos);
    EXPECT_NE(doc.find("wl/cfg"), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"dur\": 5"), std::string::npos);
    // Instant events need an explicit scope to load in Perfetto.
    EXPECT_NE(doc.find("\"s\": \"t\""), std::string::npos);
    EXPECT_NE(doc.find("\"line\": 42"), std::string::npos);
    EXPECT_NE(doc.find("\"dropped_events\": 3"), std::string::npos);
}

TEST(TraceExport, CanonicalOrderIsIndependentOfRecordingOrder)
{
    std::vector<obs::TraceEvent> events;
    for (std::uint32_t pid = 0; pid < 3; ++pid) {
        for (std::uint64_t ts = 0; ts < 20; ++ts)
            events.push_back(
                makeEvent("e", 'i', ts, 0, pid, ts % 4));
    }
    std::vector<obs::TraceEvent> shuffled = events;
    std::mt19937 rng(1234);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);

    obs::canonicalizeTrace(events);
    obs::canonicalizeTrace(shuffled);

    obs::TraceMeta meta;
    std::ostringstream a, b;
    obs::writeChromeTrace(a, events, meta);
    obs::writeChromeTrace(b, shuffled, meta);
    EXPECT_EQ(a.str(), b.str());
}

// --- Profiling spans ----------------------------------------------------

TEST(ProfileScope, RecordsOnlyWhenEnabled)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    const std::size_t before = tracer.collect().size();
    {
        obs::ProfileScope off("obs-test-span-off");
    }
    EXPECT_EQ(tracer.collect().size(), before);

    tracer.enable(true);
    {
        obs::ProfileScope on("obs-test-span-on");
    }
    tracer.enable(false);

    const std::vector<obs::TraceEvent> spans = tracer.collect();
    ASSERT_EQ(spans.size(), before + 1);
    bool found = false;
    for (const obs::TraceEvent &e : spans)
        found |= std::string(e.name) == "obs-test-span-on";
    EXPECT_TRUE(found);
}

// --- Study integration --------------------------------------------------

namespace {

/** One Study for the whole file: its CACTI solves dominate setup. */
class ObsStudyTest : public ::testing::Test
{
  public:
    static void SetUpTestSuite() { study_ = new Study(); }
    static void TearDownTestSuite()
    {
        delete study_;
        study_ = nullptr;
    }

    static RunnerOptions tracedSweep(int jobs)
    {
        RunnerOptions o;
        o.jobs = jobs;
        o.instrPerThread = 2000;
        o.epochCycles = 4000;
        o.thermal = false;
        o.trace = true;
        o.traceCapacity = 4096;
        o.configs = {"nol3", "sram", "cm_dram_ed"};
        o.workloads = {"ft.B", "cg.C"};
        return o;
    }

    static Study *study_;
};

Study *ObsStudyTest::study_ = nullptr;

[[maybe_unused]] std::string
tracedSweepJson(const Study &study, int jobs)
{
    const StudyRunner runner(study,
                             ObsStudyTest::tracedSweep(jobs));
    std::ostringstream os;
    exportTraceJson(os, runner.runAll());
    return os.str();
}

} // namespace

#if CACTID_OBS_TRACING
TEST_F(ObsStudyTest, TraceExportBytesIdenticalForAnyJobsCount)
{
    const std::string serial = tracedSweepJson(*study_, 1);
    EXPECT_NE(serial.find("\"cactid-trace-v1\""), std::string::npos);
    // Real events, not just metadata.
    EXPECT_NE(serial.find("\"cat\": \"dram\""), std::string::npos);
    EXPECT_EQ(tracedSweepJson(*study_, 4), serial);
}

TEST_F(ObsStudyTest, RunsRecordEventsWithinRingBound)
{
    const StudyRunner runner(*study_, tracedSweep(2));
    const std::vector<RunResult> runs = runner.runAll();
    for (const RunResult &r : runs) {
        EXPECT_FALSE(r.trace.empty()) << r.config;
        EXPECT_LE(r.trace.size(), 4096u);
    }
}
#endif

TEST_F(ObsStudyTest, L2MissesEqualL3DemandAccesses)
{
    // Every demand access that misses beyond the L2 either performs an
    // LLC lookup (counted in llc.reads: coherence always looks up with
    // write=false) or is served by a cache-to-cache forward that
    // skips the LLC — so the hierarchy's l2Misses counter must equal
    // the sum, for every configuration that has an L3.
    RunnerOptions o;
    o.jobs = 1;
    o.instrPerThread = 2000;
    o.thermal = false;
    o.configs = {"sram", "cm_dram_ed"};
    o.workloads = {"ft.B"};
    const StudyRunner runner(*study_, o);
    for (const RunResult &r : runner.runAll()) {
        EXPECT_EQ(r.stats.hier.l2Misses,
                  r.stats.llcReads + r.stats.hier.c2cTransfers)
            << r.config;
        EXPECT_GT(r.stats.hier.l2Misses, 0u) << r.config;

        // The identity must survive the registry dump path.
        obs::Registry reg;
        registerSimStats(reg, r.stats);
        EXPECT_EQ(reg.counterValue("sim.l2.demand_misses"),
                  reg.counterValue("sim.llc.reads") +
                      reg.counterValue("sim.xbar.c2c_transfers"))
            << r.config;
    }
}
