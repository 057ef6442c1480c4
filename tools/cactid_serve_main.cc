/**
 * @file
 * The `cactid-serve` command-line tool: answer a JSONL stream of solve
 * requests as one deduplicated batch on `--jobs` engine threads.
 *
 * The flag table in commandLine() drives parsing and `--help`.
 *
 * Responses are rendered deterministically in request order, and
 * solveBatch's results and cache counters do not depend on its
 * width, so the response, `--registry` and `--openmetrics` bytes are
 * the same for any `--jobs`.
 *
 * Exit codes: 0 every request answered ok; 1 stream served but some
 * request failed (parse error or infeasible config); 2 usage or
 * configuration error, including a flag value below its bound
 * (`--jobs -1`) and an unusable `--cache-dir`; 3 internal error
 * (failed write).
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/solve_cache.hh"
#include "obs/openmetrics.hh"
#include "obs/registry.hh"
#include "tools/cli.hh"
#include "tools/serve.hh"

namespace {

using namespace cactid;
using tools::withStream;

constexpr const char *kTool = "cactid-serve";

struct CliArgs {
    std::string requestsPath = "-";
    std::string outPath = "-";
    std::string cacheDir;
    std::string registryPath, openMetricsPath;
    int jobs = 0;
};

tools::CommandLine
commandLine(CliArgs &a)
{
    std::vector<tools::Flag> flags = {
        {"--requests", "FILE", "JSONL request stream (- for stdin; default "
         "-)", &a.requestsPath},
        {"--out", "FILE", "JSONL responses (- for stdout; default -)",
         &a.outPath},
        {"--jobs", "N", "engine worker threads (0 = all cores)", &a.jobs},
        {"--cache-dir", "DIR", "memoize solves in records under DIR, shared "
         "across runs; records from a different build are rejected and "
         "re-solved", &a.cacheDir},
        {"--registry", "FILE", "serve + cache counters as cactid-obs-v1",
         &a.registryPath},
        {"--openmetrics", "FILE", "the same counters as OpenMetrics text",
         &a.openMetricsPath},
    };
    return {
        kTool,
        "cactid-serve - JSONL solve service over the batch engine\n\n"
        "usage: cactid-serve [options]\n",
        std::move(flags),
        "\nrequest:  {\"id\": \"x\", \"config\": {\"size\": \"24M\", ...}}\n"
        "response: {\"index\": 0, \"id\": \"x\", \"status\": \"ok\", ...}\n"
        "\nexit codes: 0 all requests ok; 1 some request failed;\n"
        "2 usage/configuration error; 3 internal error\n"};
}

bool
readLines(const std::string &path, std::vector<std::string> &out)
{
    if (path == "-") {
        std::string line;
        while (std::getline(std::cin, line))
            out.push_back(line);
        return true;
    }
    std::ifstream f(path);
    if (!f) {
        std::fprintf(stderr, "cactid-serve: cannot open %s\n",
                     path.c_str());
        return false;
    }
    std::string line;
    while (std::getline(f, line))
        out.push_back(line);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args;
    if (const std::optional<int> rc =
            tools::parseCommandLine(commandLine(args), argc, argv))
        return *rc;

    return tools::runGuarded(kTool, [&] {
        // One process serves one batch, so only records on disk can
        // ever hit.  Built before the stream is read, so an unusable
        // --cache-dir fails first.
        const std::unique_ptr<SolveCache> cache =
            tools::openSolveCache(kTool, args.cacheDir);
        std::vector<std::string> lines;
        if (!readLines(args.requestsPath, lines))
            return 2;

        tools::ServeOptions opts;
        opts.solver.jobs = args.jobs;
        opts.solver.cache = cache.get();
        tools::ServeStats stats;
        const std::vector<std::string> responses =
            tools::serveRequests(lines, opts, &stats);

        bool io_ok = withStream(kTool, args.outPath, [&](std::ostream &os) {
            for (const std::string &r : responses)
                os << r << "\n";
        });

        obs::Registry reg;
        tools::registerServeStats(reg, stats, cache.get());
        if (!args.registryPath.empty())
            io_ok &=
                withStream(kTool, args.registryPath, [&](std::ostream &os) {
                    obs::writeRegistryDump(os, {{"serve", &reg}});
                });
        if (!args.openMetricsPath.empty())
            io_ok &= withStream(kTool, args.openMetricsPath,
                                [&](std::ostream &os) {
                                    obs::writeOpenMetrics(os,
                                                          {{"serve", &reg}});
                                });
        if (!io_ok)
            return 3;
        return stats.failed == 0 ? 0 : 1;
    });
}
