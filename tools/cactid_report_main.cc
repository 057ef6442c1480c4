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
 * Exit codes: 0 success; 2 usage error or unreadable/malformed
 * input; 3 output write failure.
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "obs/build_info.hh"
#include "report.hh"
#include "tools/cli.hh"

namespace {

using cactid::tools::withStream;

constexpr const char *kTool = "cactid-report";

void
printHelp()
{
    std::printf(
        "cactid-report - merge sweep shards into a markdown report\n"
        "\n"
        "usage: cactid-report [options]\n"
        "  --registry FILE    a cactid-obs-v1 registry dump\n"
        "                     (repeatable, one per shard)\n"
        "  --telemetry FILE   a cactid-telemetry-v1 JSONL stream\n"
        "                     (repeatable; a live file without its\n"
        "                     summary record is accepted)\n"
        "  --out FILE         the markdown report (- for stdout;\n"
        "                     default -)\n"
        "  --top N            rows in the slowest-runs table\n"
        "                     (default 10)\n"
        "  --openmetrics FILE the merged registries as one\n"
        "                     OpenMetrics document (- for stdout)\n"
        "  --version          build stamp\n"
        "  --help             this text\n");
}

struct CliArgs {
    std::vector<std::string> registryPaths;
    std::vector<std::string> telemetryPaths;
    std::string outPath = "-";
    std::string openMetricsPath;
    int topN = 10;
    bool help = false;
    bool version = false;
};

/** @return false (after printing the problem) on a usage error */
bool
parseArgs(int argc, char **argv, CliArgs &args)
{
    cactid::tools::ArgReader f(kTool, argc, argv);
    std::string path;
    while (f.next()) {
        if (f.is("--help") || f.is("-h")) {
            args.help = true;
        } else if (f.is("--version")) {
            args.version = true;
        } else if (f.is("--registry") || f.is("--telemetry")) {
            auto &paths = f.is("--registry") ? args.registryPaths
                                             : args.telemetryPaths;
            f.text(path);
            if (f.ok())
                paths.push_back(path);
        } else if (f.is("--out")) {
            f.text(args.outPath);
        } else if (f.is("--openmetrics")) {
            f.text(args.openMetricsPath);
        } else if (f.is("--top")) {
            f.number(args.topN);
            if (args.topN < 0)
                f.fail("--top needs a value >= 0");
        } else {
            f.fail(std::string("unknown option '") + f.arg() +
                   "' (--help for usage)");
        }
    }
    return f.ok();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cactid::tools;

    CliArgs args;
    if (!parseArgs(argc, argv, args))
        return 2;
    if (args.help) {
        printHelp();
        return 0;
    }
    if (args.version) {
        std::ostringstream os;
        cactid::obs::writeBuildInfoJson(os);
        std::printf("%s\n", os.str().c_str());
        return 0;
    }
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
