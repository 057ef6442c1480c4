/**
 * @file
 * Shard-merge report tests: the minimal JSON parser, registry-dump
 * and telemetry loaders, label-wise shard merging (including bounds
 * rejection), the OpenMetrics exposition, and the acceptance contract
 * that a report over N shard dumps equals the report over the
 * equivalent unsharded dump.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/openmetrics.hh"
#include "obs/registry.hh"
#include "tools/report.hh"

using namespace cactid::tools;
namespace obs = cactid::obs;

namespace {

std::string
writeTemp(const std::string &leaf, const std::string &content)
{
    const std::string path = ::testing::TempDir() + leaf;
    std::ofstream out(path);
    out << content;
    EXPECT_TRUE(out.good()) << path;
    return path;
}

/** A small run registry with counters, a gauge and one histogram. */
obs::Registry
makeRegistry(std::uint64_t base)
{
    obs::Registry r;
    r.counter("sim.cycles") = 100 * base;
    r.counter("sim.instructions") = 40 * base;
    r.gauge("power.total_w") = 0.5 * double(base);
    obs::Histogram &h = r.histogram("sim.lat.l1", {1.0, 2.0, 4.0});
    for (std::uint64_t i = 0; i < base; ++i)
        h.observe(double(i % 5));
    return r;
}

std::string
dumpOf(const std::vector<std::pair<std::string, obs::Registry>> &regs)
{
    std::vector<std::pair<std::string, const obs::Registry *>> items;
    for (const auto &[label, reg] : regs)
        items.emplace_back(label, &reg);
    std::ostringstream os;
    obs::writeRegistryDump(os, items);
    return os.str();
}

} // namespace

// --- JSON parser ---------------------------------------------------------

TEST(ReportJson, ParsesScalarsArraysObjects)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(
        R"({"a": 1.5e-3, "b": [1, 2, -3], "c": "x\ny", "d": true,)"
        R"( "e": null, "f": {"g": 18446744073709551615}})",
        v, &err))
        << err;
    ASSERT_EQ(v.kind, JsonValue::Kind::Object);
    EXPECT_EQ(v.find("a")->number, "1.5e-3"); // raw text kept
    EXPECT_DOUBLE_EQ(v.find("a")->asDouble(), 1.5e-3);
    ASSERT_EQ(v.find("b")->array.size(), 3u);
    EXPECT_EQ(v.find("b")->array[2].number, "-3");
    EXPECT_EQ(v.find("c")->str, "x\ny");
    EXPECT_TRUE(v.find("d")->boolean);
    EXPECT_EQ(v.find("e")->kind, JsonValue::Kind::Null);
    EXPECT_EQ(v.find("f")->find("g")->asUint(),
              18446744073709551615ull); // exact through raw text
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ReportJson, DecodesEscapes)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(R"(["a\"b\\c", "Aé"])", v, &err))
        << err;
    EXPECT_EQ(v.array[0].str, "a\"b\\c");
    EXPECT_EQ(v.array[1].str, "A\xc3\xa9");
}

TEST(ReportJson, ReportsErrorPosition)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson(R"({"a": )", v, &err));
    EXPECT_NE(err.find("offset"), std::string::npos) << err;
    EXPECT_FALSE(parseJson("{} trailing", v, &err));
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

// --- Registry dump loader ------------------------------------------------

TEST(ReportLoad, RegistryDumpRoundTripsExactly)
{
    std::vector<std::pair<std::string, obs::Registry>> regs;
    regs.emplace_back("ft.B/nol3", makeRegistry(7));
    regs.emplace_back("is.C/sram", makeRegistry(3));
    const std::string doc = dumpOf(regs);
    const std::string path = writeTemp("report_rt.json", doc);

    RegistryShard shard;
    std::string err;
    ASSERT_TRUE(loadRegistryDump(path, shard, &err)) << err;
    ASSERT_EQ(shard.registries.size(), 2u);
    EXPECT_EQ(shard.registries[0].first, "ft.B/nol3");

    // Re-dumping what was loaded reproduces the document byte for
    // byte (same build stamp within one binary).
    EXPECT_EQ(dumpOf(shard.registries), doc);
    std::remove(path.c_str());
}

TEST(ReportLoad, RejectsWrongSchemaAndMissingFile)
{
    const std::string path =
        writeTemp("report_bad.json", R"({"schema": "other-v1"})");
    RegistryShard shard;
    std::string err;
    EXPECT_FALSE(loadRegistryDump(path, shard, &err));
    EXPECT_NE(err.find("cactid-obs-v1"), std::string::npos) << err;
    EXPECT_FALSE(loadRegistryDump(::testing::TempDir() + "missing.json",
                                  shard, &err));
    std::remove(path.c_str());
}

TEST(ReportLoad, RejectsMalformedNumbers)
{
    // A malformed number fails the load with one line naming the file,
    // the field and the text; it never merges as a nearby number.
    std::vector<std::pair<std::string, obs::Registry>> regs;
    regs.emplace_back("ft.B/nol3", makeRegistry(7));
    const std::string doc = dumpOf(regs);
    const struct {
        const char *from, *to, *field, *got;
    } cases[] = {
        {"\"sim.cycles\": 700", "\"sim.cycles\": -1",
         "counter 'sim.cycles'", "-1"},
        {"\"sim.cycles\": 700", "\"sim.cycles\": 1-2",
         "counter 'sim.cycles'", "1-2"},
        {"\"sim.cycles\": 700", "\"sim.cycles\": 1.9",
         "counter 'sim.cycles'", "1.9"},
        {"\"sim.cycles\": 700", "\"sim.cycles\": 1e3",
         "counter 'sim.cycles'", "1e3"},
        {"\"sim.cycles\": 700", "\"sim.cycles\": \"700\"",
         "counter 'sim.cycles'", "\"700\""},
        {"\"power.total_w\": 3.5", "\"power.total_w\": 1e999",
         "gauge 'power.total_w'", "1e999"},
        {"\"power.total_w\": 3.5", "\"power.total_w\": 3.5.1",
         "gauge 'power.total_w'", "3.5.1"},
        {"\"counts\": [4, 1,", "\"counts\": [4, -1,",
         "histogram 'sim.lat.l1'", "-1"},
        {"\"total\": 7", "\"total\": 7.0", "histogram 'sim.lat.l1'",
         "7.0"},
        {"\"sum\": 11", "\"sum\": 1-1", "histogram 'sim.lat.l1'",
         "1-1"},
        {"\"bounds\": [1,", "\"bounds\": [1e-999,",
         "histogram 'sim.lat.l1'", "1e-999"},
    };
    for (const auto &c : cases) {
        const std::size_t at = doc.find(c.from);
        ASSERT_NE(at, std::string::npos) << c.from << " in\n" << doc;
        std::string bad = doc;
        bad.replace(at, std::string(c.from).size(), c.to);
        const std::string path = writeTemp("report_badnum.json", bad);
        RegistryShard shard;
        std::string err;
        EXPECT_FALSE(loadRegistryDump(path, shard, &err)) << c.to;
        EXPECT_EQ(err.rfind(path + ": registry 'ft.B/nol3': " + c.field +
                                ": needs ",
                            0),
                  0u)
            << err;
        EXPECT_NE(err.find(std::string("(got ") + c.got + ")"),
                  std::string::npos)
            << err;
        EXPECT_EQ(err.find('\n'), std::string::npos) << err;
        std::remove(path.c_str());
    }

    const std::string tpath = writeTemp(
        "report_badnum.jsonl",
        R"({"schema": "cactid-telemetry-v1", "record": "start", "total_runs": 2, "interval_ms": 1000})"
        "\n"
        R"({"record": "run", "index": 0, "config": "nol3", "workload": "ft.B", "status": "ok", "attempts": 1, "host": {"wall_ms": -5, "cpu_ms": 4, "peak_rss_kb": 90}})"
        "\n");
    TelemetryShard tshard;
    std::string err;
    EXPECT_FALSE(loadTelemetry(tpath, tshard, &err));
    EXPECT_EQ(err, tpath + ":2: wall_ms: needs a whole number >= 0 "
                           "(got -5)");
    std::remove(tpath.c_str());
}

// --- Telemetry loader ----------------------------------------------------

TEST(ReportLoad, TelemetryParsesRunsAndSummary)
{
    const std::string path = writeTemp(
        "report_telem.jsonl",
        R"({"schema": "cactid-telemetry-v1", "record": "start", "total_runs": 2, "interval_ms": 1000})"
        "\n"
        R"({"record": "run", "index": 1, "config": "sram", "workload": "is.C", "status": "failed", "attempts": 2, "error": {"message": "boom", "phase": "simulate", "cycle": 42}, "host": {"wall_ms": 9, "cpu_ms": 8, "peak_rss_kb": 100}})"
        "\n"
        R"({"record": "heartbeat", "host": {"seq": 1}})"
        "\n"
        R"({"record": "run", "index": 0, "config": "nol3", "workload": "ft.B", "status": "ok", "attempts": 1, "host": {"wall_ms": 5, "cpu_ms": 4, "peak_rss_kb": 90}})"
        "\n"
        R"({"record": "summary", "runs": 2, "ok": 1, "failed": 1, "timed_out": 0, "skipped": 0, "retries": 1, "counters": {"sim.cycles": 1234}, "host": {"elapsed_ms": 20, "cpu_ms": 12, "peak_rss_kb": 100}})"
        "\n");
    TelemetryShard shard;
    std::string err;
    ASSERT_TRUE(loadTelemetry(path, shard, &err)) << err;
    EXPECT_EQ(shard.totalRuns, 2u);
    ASSERT_EQ(shard.runs.size(), 2u); // heartbeat ignored
    EXPECT_EQ(shard.runs[0].index, 0u); // sorted by index
    EXPECT_EQ(shard.runs[1].status, "failed");
    EXPECT_EQ(shard.runs[1].errorMessage, "boom");
    EXPECT_EQ(shard.runs[1].errorPhase, "simulate");
    EXPECT_EQ(shard.runs[1].wallMs, 9u);
    EXPECT_TRUE(shard.hasSummary);
    EXPECT_EQ(shard.retries, 1u);
    EXPECT_EQ(shard.counters.at("sim.cycles"), 1234u);
    EXPECT_EQ(shard.elapsedMs, 20u);
    std::remove(path.c_str());
}

TEST(ReportLoad, TelemetryToleratesMissingSummary)
{
    const std::string path = writeTemp(
        "report_live.jsonl",
        R"({"schema": "cactid-telemetry-v1", "record": "start", "total_runs": 4, "interval_ms": 1000})"
        "\n"
        R"({"record": "run", "index": 0, "config": "nol3", "workload": "ft.B", "status": "ok", "attempts": 1, "host": {"wall_ms": 5, "cpu_ms": 4, "peak_rss_kb": 90}})"
        "\n");
    TelemetryShard shard;
    std::string err;
    ASSERT_TRUE(loadTelemetry(path, shard, &err)) << err;
    EXPECT_FALSE(shard.hasSummary);
    EXPECT_EQ(shard.totalRuns, 4u);
    EXPECT_EQ(shard.runs.size(), 1u);
    std::remove(path.c_str());
}

// --- Shard merging -------------------------------------------------------

TEST(ReportMerge, IsLabelWiseAdditiveAndOrderIndependent)
{
    RegistryShard s0, s1;
    s0.path = "s0";
    s1.path = "s1";
    s0.registries.emplace_back("b", makeRegistry(2));
    s0.registries.emplace_back("a", makeRegistry(1));
    s1.registries.emplace_back("a", makeRegistry(4));

    const auto ab = mergeShards({s0, s1});
    const auto ba = mergeShards({s1, s0});
    ASSERT_EQ(ab.size(), 2u);
    EXPECT_EQ(ab[0].first, "a"); // sorted labels
    EXPECT_EQ(ab[0].second.counterValue("sim.cycles"), 500u);
    EXPECT_EQ(ab[0].second.histograms().at("sim.lat.l1").total(), 5u);
    EXPECT_EQ(dumpOf(ab), dumpOf(ba));
}

TEST(ReportMerge, RejectsMismatchedHistogramBounds)
{
    RegistryShard s0, s1;
    s0.path = "shard0.json";
    s1.path = "shard1.json";
    s0.registries.emplace_back("a", makeRegistry(1));
    obs::Registry other;
    other.histogram("sim.lat.l1", {1.0, 2.0});
    s1.registries.emplace_back("a", std::move(other));
    try {
        mergeShards({s0, s1});
        FAIL() << "merge accepted mismatched bounds";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("shard1.json"), std::string::npos) << msg;
        EXPECT_NE(msg.find("sim.lat.l1"), std::string::npos) << msg;
    }
}

// --- OpenMetrics ---------------------------------------------------------

TEST(OpenMetrics, SanitizesNamesAndEmitsCumulativeBuckets)
{
    EXPECT_EQ(obs::openMetricsName("sim.lat.dram.row_hit"),
              "cactid_sim_lat_dram_row_hit");

    obs::Registry r = makeRegistry(5);
    std::vector<std::pair<std::string, const obs::Registry *>> items;
    items.emplace_back("ft.B/nol3", &r);
    std::ostringstream os;
    obs::writeOpenMetrics(os, items);
    const std::string out = os.str();
    EXPECT_NE(out.find("# TYPE cactid_sim_cycles counter"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("cactid_sim_cycles_total{run=\"ft.B/nol3\"} "
                       "500"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("# TYPE cactid_power_total_w gauge"),
              std::string::npos);
    // 5 observations of 0,1,2,3,4 against bounds {1,2,4}: cumulative
    // buckets 2, 3, 5 and an +Inf bucket of 5.
    EXPECT_NE(
        out.find(
            "cactid_sim_lat_l1_bucket{run=\"ft.B/nol3\",le=\"1\"} 2"),
        std::string::npos)
        << out;
    EXPECT_NE(
        out.find(
            "cactid_sim_lat_l1_bucket{run=\"ft.B/nol3\",le=\"+Inf\"} "
            "5"),
        std::string::npos)
        << out;
    EXPECT_NE(out.find("cactid_sim_lat_l1_count{run=\"ft.B/nol3\"} 5"),
              std::string::npos);
    // Exactly one terminator, at the end.
    EXPECT_EQ(out.rfind("# EOF\n"), out.size() - 6);
}

// --- Report --------------------------------------------------------------

TEST(Report, ShardedEqualsUnsharded)
{
    // The same six run registries, split 2 + 4 vs all in one dump.
    std::vector<std::pair<std::string, obs::Registry>> all;
    const char *labels[] = {"bt.C/nol3", "cg.C/nol3", "ft.B/nol3",
                            "bt.C/sram", "cg.C/sram", "ft.B/sram"};
    for (std::uint64_t i = 0; i < 6; ++i)
        all.emplace_back(labels[i], makeRegistry(i + 1));

    const auto dump = [](const std::vector<std::pair<
                             std::string, obs::Registry>> &regs,
                         const std::string &leaf) {
        return writeTemp(leaf, dumpOf(regs));
    };
    const std::string whole = dump(all, "report_whole.json");
    const std::string half0 = dump(
        {all.begin(), all.begin() + 2}, "report_half0.json");
    const std::string half1 = dump(
        {all.begin() + 2, all.end()}, "report_half1.json");

    const auto report = [](const std::vector<std::string> &paths) {
        std::vector<RegistryShard> shards;
        for (const std::string &p : paths) {
            RegistryShard s;
            std::string err;
            EXPECT_TRUE(loadRegistryDump(p, s, &err)) << err;
            shards.push_back(std::move(s));
        }
        std::ostringstream md, om;
        writeMarkdownReport(md, shards, {}, 10);
        writeMergedOpenMetrics(om, shards);
        return md.str() + "\x1f" + om.str();
    };
    const std::string unsharded = report({whole});
    EXPECT_EQ(report({half0, half1}), unsharded);
    EXPECT_EQ(report({half1, half0}), unsharded);
    EXPECT_NE(unsharded.find("## Latency percentiles"),
              std::string::npos);
    for (const std::string &p : {whole, half0, half1})
        std::remove(p.c_str());
}

TEST(Report, RendersTelemetrySections)
{
    TelemetryShard t;
    t.totalRuns = 2;
    t.hasSummary = true;
    t.ok = 1;
    t.failed = 1;
    t.retries = 1;
    t.elapsedMs = 100;
    t.cpuMs = 80;
    t.counters["sim.cycles"] = 999;
    TelemetryRun fast{0, "nol3", "ft.B", "ok",     1, "",
                      "", 0,      5,      4,       90};
    TelemetryRun slow{1, "sram", "is.C", "failed", 2, "boom",
                      "simulate", 42,    9,  8,    100};
    t.runs = {fast, slow};

    std::ostringstream os;
    writeMarkdownReport(os, {}, {t}, 1);
    const std::string out = os.str();
    EXPECT_NE(out.find("## Progress"), std::string::npos);
    EXPECT_NE(out.find("| runs | 2 / 2 |"), std::string::npos) << out;
    EXPECT_NE(out.find("| sim.cycles | 999 |"), std::string::npos);
    // top 1: only the slowest run shows.
    EXPECT_NE(out.find("| 1 | is.C/sram | failed | 9 ms | 8 ms |"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("| 2 | ft.B/nol3"), std::string::npos);
    EXPECT_NE(out.find("## Faults and retries"), std::string::npos);
    EXPECT_NE(out.find("boom"), std::string::npos);
}
