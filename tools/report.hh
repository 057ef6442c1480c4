/**
 * @file
 * Shard-merge reporting behind the `cactid-report` tool.
 *
 * A sharded sweep (several cactid-study invocations over disjoint
 * workload/config subsets — the pattern a future cactid-serve
 * daemonizes) leaves one registry dump and/or telemetry JSONL file
 * per shard.  This module loads them back, merges the registries
 * label-wise (bounds-checked histogram merges, labels sorted so the
 * merged document is deterministic whatever order the shards are
 * given in), and renders a markdown report: progress summary, latency
 * percentile tables, top-N slowest runs, and a fault/retry census.
 *
 * The JSON parser here is deliberately minimal — just enough for the
 * repo's own "cactid-obs-v1" and "cactid-telemetry-v1" documents —
 * and keeps numbers as raw text so values round-trip exactly.
 */

#ifndef CACTID_TOOLS_REPORT_HH
#define CACTID_TOOLS_REPORT_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hh"

namespace cactid::tools {

/** A parsed JSON value; numbers keep their raw text. */
struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;

    bool boolean = false;
    std::string number; ///< raw token, e.g. "1.5e-3"
    std::string str;
    std::vector<JsonValue> array;
    /** Insertion-ordered (the dumps are already canonically sorted). */
    std::vector<std::pair<std::string, JsonValue>> object;

    /** The number as a finite double; throws std::invalid_argument
     * quoting the text on anything else. */
    double asDouble() const;
    /** The number as a whole decimal count (no sign, fraction or
     * exponent); throws std::invalid_argument quoting the text on
     * anything else. */
    std::uint64_t asUint() const;

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;
};

/**
 * Parse @p text into @p out.
 * @return false (with a position-annotated message in @p err) on
 *         malformed input
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string *err);

/** The labelled registries of one "cactid-obs-v1" dump. */
struct RegistryShard {
    std::string path;
    std::vector<std::pair<std::string, cactid::obs::Registry>>
        registries;
};

/** One run record of a "cactid-telemetry-v1" stream. */
struct TelemetryRun {
    std::uint64_t index = 0;
    std::string config, workload, status;
    std::uint64_t attempts = 1;
    std::string errorMessage, errorPhase;
    std::uint64_t errorCycle = 0;
    std::uint64_t wallMs = 0, cpuMs = 0, peakRssKb = 0;
};

/** The parsed content of one telemetry JSONL file. */
struct TelemetryShard {
    std::string path;
    std::uint64_t totalRuns = 0;
    std::vector<TelemetryRun> runs;

    bool hasSummary = false;
    std::uint64_t ok = 0, failed = 0, timedOut = 0, skipped = 0,
                  retries = 0;
    std::map<std::string, std::uint64_t> counters;
    std::uint64_t elapsedMs = 0, cpuMs = 0, peakRssKb = 0;
};

/** Load a registry dump; false (with @p err) on I/O or parse error. */
bool loadRegistryDump(const std::string &path, RegistryShard &out,
                      std::string *err);

/** Load a telemetry stream; tolerates a missing summary (live file). */
bool loadTelemetry(const std::string &path, TelemetryShard &out,
                   std::string *err);

/**
 * Merge shard registries label-wise into one sorted registry list:
 * same-label registries merge additively (shards covering disjoint
 * runs simply concatenate; a re-exported shard double-counts, which
 * is on the caller).  Histogram bounds mismatches throw
 * std::invalid_argument naming the label and metric.
 */
std::vector<std::pair<std::string, cactid::obs::Registry>>
mergeShards(const std::vector<RegistryShard> &shards);

/**
 * Render the markdown report from whatever inputs were given:
 * progress/throughput and slowest-run/fault sections need telemetry,
 * the latency and counter sections need registry dumps — each section
 * is emitted only when its source is present.  Deterministic for a
 * given input set: shard order never changes the bytes (labels and
 * run indices are sorted), so a report over N shard dumps equals the
 * report over the equivalent unsharded dump.
 */
void writeMarkdownReport(std::ostream &os,
                         const std::vector<RegistryShard> &registries,
                         const std::vector<TelemetryShard> &telemetry,
                         int topN);

/** The merged registries as an OpenMetrics exposition. */
void writeMergedOpenMetrics(std::ostream &os,
                            const std::vector<RegistryShard> &shards);

} // namespace cactid::tools

#endif // CACTID_TOOLS_REPORT_HH
