/**
 * @file
 * The `cactid-report` command-line tool: merge the registry dumps
 * and/or telemetry streams left by one or more cactid-study shards
 * and render a markdown report (progress, latency percentiles,
 * slowest runs, fault census).  The merged counters can also be
 * re-exported as one OpenMetrics document.
 *
 * Usage:
 *   cactid-report --registry a.json --registry b.json
 *   cactid-report --telemetry shard0.jsonl --telemetry shard1.jsonl
 *   cactid-report --registry r.json --out report.md --top 5
 *   cactid-report --registry a.json --openmetrics merged.om
 *
 * The report is a pure function of the merged inputs: giving the
 * shards in any order produces the same bytes, and N shard dumps
 * produce the same report as the equivalent unsharded dump.
 *
 * The flag table in commandLine() drives parsing and `--help`.
 *
 * Exit codes: 0 success; 2 usage error (a flag value below its
 * bound, such as `--top -1`, included) or unreadable/malformed input;
 * 3 output write failure.
 */

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "report.hh"
#include "tools/cli.hh"

namespace {

using cactid::tools::withStream;

constexpr const char *kTool = "cactid-report";

struct CliArgs {
    std::vector<std::string> registryPaths;
    std::vector<std::string> telemetryPaths;
    std::string outPath = "-";
    std::string openMetricsPath;
    int topN = 10;
};

cactid::tools::CommandLine
commandLine(CliArgs &a)
{
    std::vector<cactid::tools::Flag> flags = {
        {"--registry", "FILE", "a cactid-obs-v1 registry dump (repeatable, "
         "one per shard)", &a.registryPaths},
        {"--telemetry", "FILE", "a cactid-telemetry-v1 JSONL stream "
         "(repeatable; a live file without its summary record is "
         "accepted)", &a.telemetryPaths},
        {"--out", "FILE", "the markdown report (- for stdout; default -)",
         &a.outPath},
        {"--top", "N", "rows in the slowest-runs table (default 10)",
         &a.topN},
        {"--openmetrics", "FILE", "the merged registries as one OpenMetrics "
         "document (- for stdout)", &a.openMetricsPath},
    };
    return {kTool,
            "cactid-report - merge sweep shards into a markdown report\n\n"
            "usage: cactid-report [options]\n",
            std::move(flags),
            "\nexit codes: 0 success; 2 usage error or "
            "unreadable/malformed\ninput; 3 output write failure\n"};
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cactid::tools;

    CliArgs args;
    if (const std::optional<int> rc =
            parseCommandLine(commandLine(args), argc, argv))
        return *rc;
    if (args.registryPaths.empty() && args.telemetryPaths.empty()) {
        std::fprintf(stderr,
                     "cactid-report: nothing to report: give at "
                     "least one --registry or --telemetry file\n");
        return 2;
    }

    std::vector<RegistryShard> registries;
    for (const std::string &path : args.registryPaths) {
        RegistryShard shard;
        std::string err;
        if (!loadRegistryDump(path, shard, &err)) {
            std::fprintf(stderr, "cactid-report: %s\n", err.c_str());
            return 2;
        }
        registries.push_back(std::move(shard));
    }
    std::vector<TelemetryShard> telemetry;
    for (const std::string &path : args.telemetryPaths) {
        TelemetryShard shard;
        std::string err;
        if (!loadTelemetry(path, shard, &err)) {
            std::fprintf(stderr, "cactid-report: %s\n", err.c_str());
            return 2;
        }
        telemetry.push_back(std::move(shard));
    }

    return cactid::tools::runGuarded(kTool, [&] {
        bool io_ok = withStream(kTool, args.outPath, [&](std::ostream &os) {
            writeMarkdownReport(os, registries, telemetry, args.topN);
        });
        if (!args.openMetricsPath.empty()) {
            io_ok &= withStream(
                kTool, args.openMetricsPath, [&](std::ostream &os) {
                    writeMergedOpenMetrics(os, registries);
                });
        }
        return io_ok ? 0 : 3;
    });
}
