/**
 * @file
 * Tests for the cactid-serve request/response layer: JSONL parsing,
 * deterministic response rendering, per-request error isolation,
 * responses and counters that do not depend on the jobs count, and
 * the fixed counter set.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/fingerprint.hh"
#include "core/solve_cache.hh"
#include "obs/registry.hh"
#include "tools/serve.hh"

namespace {

using namespace cactid;
using namespace cactid::tools;

std::string
requestLine(const std::string &id, const std::string &size,
            int assoc, const std::string &extra = "")
{
    return "{\"id\": \"" + id + "\", \"config\": {\"size\": \"" +
           size + "\", \"block\": 64, \"associativity\": " +
           std::to_string(assoc) +
           ", \"type\": \"cache\", \"technology\": \"sram\"" + extra +
           "}}";
}

TEST(ServeRequest, ParsesConfigAndId)
{
    const ServeRequest req =
        parseServeRequest(requestLine("r1", "64K", 4), 7);
    EXPECT_TRUE(req.ok) << req.error;
    EXPECT_EQ(req.index, 7u);
    EXPECT_EQ(req.id, "r1");
    EXPECT_EQ(req.cfg.capacityBytes, 64 << 10);
    EXPECT_EQ(req.cfg.associativity, 4);
    EXPECT_EQ(req.cfg.type, MemoryType::Cache);
}

TEST(ServeRequest, NumericIdIsEchoed)
{
    const ServeRequest req = parseServeRequest(
        "{\"id\": 42, \"config\": {\"size\": \"64K\"}}", 0);
    EXPECT_TRUE(req.ok) << req.error;
    EXPECT_EQ(req.id, "42");
}

TEST(ServeRequest, MalformedLinesFailWithDiagnostics)
{
    EXPECT_FALSE(parseServeRequest("not json", 0).ok);
    EXPECT_FALSE(parseServeRequest("[1,2]", 0).ok);
    EXPECT_FALSE(parseServeRequest("{\"id\": \"x\"}", 0).ok);
    const ServeRequest bad_value = parseServeRequest(
        "{\"config\": {\"size\": [1]}}", 0);
    EXPECT_FALSE(bad_value.ok);
    EXPECT_NE(bad_value.error.find("size"), std::string::npos);
    const ServeRequest bad_cap = parseServeRequest(
        "{\"config\": {\"size\": \"banana\"}}", 0);
    EXPECT_FALSE(bad_cap.ok);
}

TEST(ServeRequest, MembersAreNeverSplicedIntoConfigText)
{
    // A newline or '#' inside a member used to rewrite the request
    // once the members were pasted into `key = value` lines: all three
    // below were answered as the 64K cache.
    const std::string small =
        "{\"config\": {\"size\": \"64K\", \"associativity\": 4, "
        "\"type\": \"cache\"}}";
    const ServeRequest ok = parseServeRequest(small, 0);
    ASSERT_TRUE(ok.ok) << ok.error;
    const std::string fp64k = configFingerprint(ok.cfg).hex();

    const std::vector<std::string> spliced = {
        "{\"config\": {\"size\": \"24M\\nsize = 64K\", "
        "\"associativity\": 4, \"type\": \"cache\"}}",
        "{\"config\": {\"size\": \"64K # really 24M\", "
        "\"associativity\": 4, \"type\": \"cache\"}}",
        "{\"config\": {\"size = 64K\\nassociativity\": 4, "
        "\"type\": \"cache\"}}",
    };
    for (const std::string &line : spliced) {
        const ServeRequest req = parseServeRequest(line, 0);
        EXPECT_FALSE(req.ok) << line;
        EXPECT_NE(req.error.find("size"), std::string::npos) << req.error;
    }
    ServeStats stats;
    const std::vector<std::string> responses =
        serveRequests(spliced, ServeOptions{}, &stats);
    ASSERT_EQ(responses.size(), spliced.size());
    EXPECT_EQ(stats.failed, spliced.size());
    for (const std::string &r : responses) {
        EXPECT_NE(r.find("\"status\":\"error\""), std::string::npos) << r;
        EXPECT_EQ(r.find(fp64k), std::string::npos) << r;
    }
}

TEST(ServeRequest, EngineKeysAreIgnored)
{
    // A request cannot change the server's execution policy: a config
    // holds no engine key, so naming one fails the request alone.
    const ServeRequest req = parseServeRequest(
        requestLine("r", "64K", 4, ", \"jobs\": 99"), 0);
    EXPECT_FALSE(req.ok);
    EXPECT_EQ(req.error, "unknown key 'jobs'");
}

TEST(Serve, ResponsesAreDeterministicAndOrdered)
{
    const std::vector<std::string> lines = {
        requestLine("a", "64K", 4),
        "", // blank lines are skipped, not indexed
        requestLine("b", "128K", 8),
        requestLine("a2", "64K", 4), // duplicate of a
    };
    ServeStats stats;
    const std::vector<std::string> first =
        serveRequests(lines, ServeOptions{}, &stats);
    const std::vector<std::string> second =
        serveRequests(lines, ServeOptions{});
    EXPECT_EQ(first, second);
    ASSERT_EQ(first.size(), 3u);
    EXPECT_EQ(stats.requests, 3u);
    EXPECT_EQ(stats.ok, 3u);
    EXPECT_EQ(stats.failed, 0u);

    EXPECT_NE(first[0].find("\"index\":0"), std::string::npos);
    EXPECT_NE(first[0].find("\"id\":\"a\""), std::string::npos);
    EXPECT_NE(first[0].find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(first[1].find("\"index\":1"), std::string::npos);
    EXPECT_NE(first[2].find("\"index\":2"), std::string::npos);

    // The duplicate solves to byte-identical metrics under its own id.
    const std::string a_body = first[0].substr(first[0].find("best"));
    const std::string dup_body =
        first[2].substr(first[2].find("best"));
    EXPECT_EQ(a_body, dup_body);
}

TEST(Serve, BadRequestFailsAloneAmongGoodOnes)
{
    const std::vector<std::string> lines = {
        requestLine("good", "64K", 4),
        "{\"id\": \"bad\", \"config\": {\"size\": \"banana\"}}",
        requestLine("also-good", "128K", 8),
    };
    ServeStats stats;
    const std::vector<std::string> responses =
        serveRequests(lines, ServeOptions{}, &stats);
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(stats.ok, 2u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_NE(responses[0].find("\"status\":\"ok\""),
              std::string::npos);
    EXPECT_NE(responses[1].find("\"status\":\"error\""),
              std::string::npos);
    EXPECT_NE(responses[1].find("\"id\":\"bad\""), std::string::npos);
    EXPECT_NE(responses[2].find("\"status\":\"ok\""),
              std::string::npos);
}

TEST(Serve, ResponsesAndCountersAreJobsIndependent)
{
    // Duplicates, a weight-only variant, a malformed line, one request
    // of each memory type and one no organization can build.
    std::vector<std::string> lines;
    for (int i = 0; i < 3; ++i) {
        lines.push_back(requestLine("a" + std::to_string(i), "64K", 4));
        lines.push_back("{\"id\": \"b" + std::to_string(i) +
                        "\", \"config\": {\"size\": \"128K\", "
                        "\"block\": 64, \"associativity\": 8, \"type\": "
                        "\"cache\", \"technology\": \"lp-dram\"}}");
    }
    lines.push_back(
        requestLine("a-leak", "64K", 4, ", \"weight_leakage\": 3"));
    lines.push_back("{\"id\": \"torn\", \"config\": {\"size\"");
    lines.push_back("{\"id\": \"ram\", \"config\": {\"size\": \"256K\", "
                    "\"block\": 64, \"type\": \"ram\", \"technology\": "
                    "\"sram\"}}");
    lines.push_back("{\"id\": \"chip\", \"config\": {\"size\": \"1M\", "
                    "\"block\": 8, \"type\": \"main_memory\", "
                    "\"technology\": \"comm-dram\"}}");
    lines.push_back("{\"id\": \"llc\", \"config\": {\"size\": \"1M\", "
                    "\"block\": 64, \"associativity\": 8, \"type\": "
                    "\"cache\", \"technology\": \"lp-dram\"}}");
    lines.push_back(requestLine("bad", "1K", 16, ", \"banks\": 8"));

    struct Pass {
        std::vector<std::string> responses;
        ServeStats stats;
        SolveCacheCounters cache;
    };
    const auto serveAt = [&lines](int jobs) {
        SolveCache cache;
        ServeOptions opts;
        opts.solver.jobs = jobs;
        opts.solver.cache = &cache;
        Pass p;
        p.responses = serveRequests(lines, opts, &p.stats);
        p.cache = cache.counters();
        return p;
    };
    const Pass serial = serveAt(1);
    ASSERT_EQ(serial.responses.size(), 12u);
    EXPECT_EQ(serial.stats.requests, 12u);
    EXPECT_EQ(serial.stats.ok, 10u);
    EXPECT_EQ(serial.stats.failed, 2u);
    EXPECT_NE(serial.responses[7].find("malformed request JSON"),
              std::string::npos)
        << serial.responses[7];
    EXPECT_NE(serial.responses[11].find("no feasible tag organization"),
              std::string::npos)
        << serial.responses[11];
    // Seven distinct configs (the weight-only variant is one of them),
    // each looked up once.
    EXPECT_EQ(serial.cache.hits, 0u);
    EXPECT_EQ(serial.cache.misses, 7u);

    for (const int jobs : {2, 8}) {
        const Pass p = serveAt(jobs);
        EXPECT_EQ(p.responses, serial.responses) << "jobs=" << jobs;
        EXPECT_EQ(p.stats.requests, serial.stats.requests);
        EXPECT_EQ(p.stats.ok, serial.stats.ok);
        EXPECT_EQ(p.stats.failed, serial.stats.failed);
        EXPECT_EQ(p.cache.hits, serial.cache.hits);
        EXPECT_EQ(p.cache.misses, serial.cache.misses);
        EXPECT_EQ(p.cache.evictions, serial.cache.evictions);
        EXPECT_EQ(p.cache.inserts, serial.cache.inserts);
        EXPECT_EQ(p.cache.rejected, serial.cache.rejected);
        EXPECT_EQ(p.cache.entries, serial.cache.entries);
        EXPECT_EQ(p.cache.bytes, serial.cache.bytes);
    }
}

TEST(ServeStatsRegistry, MergeableLabelSetIsFixed)
{
    // With no cache installed, every name still appears (as zero) so
    // every dump has the same label set.
    obs::Registry r;
    ServeStats stats;
    stats.requests = 4;
    stats.ok = 3;
    stats.failed = 1;
    registerServeStats(r, stats, nullptr);
    EXPECT_EQ(r.counterValue("serve.requests"), 4u);
    EXPECT_EQ(r.counterValue("serve.ok"), 3u);
    EXPECT_EQ(r.counterValue("serve.failed"), 1u);
    for (const char *name :
         {"engine.cache.hits", "engine.cache.misses",
          "engine.cache.evictions", "engine.cache.rejected"}) {
        EXPECT_EQ(r.counters().count(name), 1u) << name;
        EXPECT_EQ(r.counterValue(name), 0u) << name;
    }
    // The occupancy counters stay out of the serve set.
    EXPECT_EQ(r.counters().count("engine.cache.entries"), 0u);
    EXPECT_EQ(r.counters().count("engine.cache.bytes"), 0u);
}

} // namespace
