/**
 * @file
 * The `cactid-serve` command-line tool: answer a JSONL stream of solve
 * requests, optionally sharded across worker processes that share one
 * on-disk solve cache.
 *
 * printHelp() (`--help`) lists every flag.
 *
 * Responses are rendered deterministically and carry their global
 * request index, so the sharded merge (ordered by index) is
 * byte-identical to an unsharded run over the same stream; the merged
 * registry dump equals the unsharded one whenever duplicate requests
 * land in the same shard (round-robin: a property of the stream).
 *
 * Exit codes: 0 every request answered ok; 1 stream served but some
 * request failed (parse error or infeasible config); 2 usage or
 * configuration error; 3 internal error (worker death, failed write).
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/solve_cache.hh"
#include "obs/build_info.hh"
#include "obs/registry.hh"
#include "tools/cache_cli.hh"
#include "tools/cli.hh"
#include "tools/report.hh"
#include "tools/serve.hh"
#include "util/atomic_file.hh"

namespace {

using namespace cactid;
using tools::withStream;

constexpr const char *kTool = "cactid-serve";

void
printHelp()
{
    std::printf(
        "cactid-serve - JSONL solve service over the batch engine\n"
        "\n"
        "usage: cactid-serve [options]\n"
        "  --requests FILE    JSONL request stream (- for stdin;\n"
        "                     default -)\n"
        "  --out FILE         JSONL responses (- for stdout; default -)\n"
        "  --jobs N           engine worker threads per process\n"
        "                     (0 = all cores)\n"
        "  --cache on|off     memoize solves in-process (default off,\n"
        "                     on when --cache-dir is given)\n"
        "  --cache-dir DIR    persist cache records under DIR, shared\n"
        "                     across shards and runs; records from a\n"
        "                     different build are rejected and\n"
        "                     re-solved\n"
        "  --registry FILE    serve + cache counters as cactid-obs-v1\n"
        "  --openmetrics FILE the same counters as OpenMetrics text\n"
        "  --shards N         fan the stream out over N worker\n"
        "                     processes (round-robin by request index)\n"
        "                     and merge responses/registries; needs\n"
        "                     file paths for --requests/--out\n"
        "  --shard I/N        worker mode: serve only requests with\n"
        "                     index %% N == I\n"
        "  --version          print the build stamp\n"
        "\n"
        "request:  {\"id\": \"x\", \"config\": {\"size\": \"24M\", ...}}\n"
        "response: {\"index\": 0, \"id\": \"x\", \"status\": \"ok\", ...}\n"
        "\n"
        "exit codes: 0 all requests ok; 1 some request failed;\n"
        "2 usage/configuration error; 3 internal error\n");
}

struct CliArgs {
    std::string requestsPath = "-";
    std::string outPath = "-";
    std::string cacheMode;
    std::string cacheDir;
    std::string registryPath, openMetricsPath;
    int jobs = 0;
    int shards = 0;    ///< parent fan-out (0 = unsharded)
    int shardIndex = -1, shardCount = 0; ///< worker mode
    bool version = false;
    bool help = false;
    bool ok = true;
};

CliArgs
parseArgs(int argc, char **argv)
{
    CliArgs a;
    tools::ArgReader f(kTool, argc, argv);
    while (f.next()) {
        if (f.is("--help") || f.is("-h"))
            a.help = true;
        else if (f.is("--version"))
            a.version = true;
        else if (f.is("--requests"))
            f.text(a.requestsPath);
        else if (f.is("--out"))
            f.text(a.outPath);
        else if (f.is("--jobs"))
            f.number(a.jobs);
        else if (f.is("--cache"))
            f.text(a.cacheMode);
        else if (f.is("--cache-dir"))
            f.text(a.cacheDir);
        else if (f.is("--registry"))
            f.text(a.registryPath);
        else if (f.is("--openmetrics"))
            f.text(a.openMetricsPath);
        else if (f.is("--shards"))
            f.number(a.shards);
        else if (f.is("--shard")) {
            const char *v = f.value();
            const std::string_view spec = v ? v : "";
            const std::size_t slash = spec.find('/');
            const bool good =
                slash != std::string_view::npos &&
                util::parseNumber(spec.substr(0, slash), a.shardIndex) &&
                util::parseNumber(spec.substr(slash + 1), a.shardCount) &&
                0 <= a.shardIndex && a.shardIndex < a.shardCount;
            if (v && !good)
                f.fail("--shard needs I/N with 0 <= I < N (got " +
                       std::string(v) + ")");
        } else
            f.fail(std::string("unknown flag ") + f.arg());
    }
    if (a.shards != 0 && a.shardIndex >= 0)
        f.fail("--shards (parent) and --shard (worker) are exclusive");
    else if (a.shards < 0)
        f.fail("--shards needs a value >= 1");
    else if (a.shards > 1 && (a.requestsPath == "-" || a.outPath == "-"))
        f.fail("--shards needs file paths for --requests and --out "
               "(workers re-read the stream)");
    a.ok = f.ok();
    return a;
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

/**
 * Serve in this process (unsharded, or one worker of a shard fleet)
 * and emit every configured output.
 */
int
serveInProcess(const CliArgs &args)
{
    std::vector<std::string> lines;
    if (!readLines(args.requestsPath, lines))
        return 2;

    tools::ServeOptions opts;
    opts.solver.jobs = args.jobs;
    opts.solver.collectAll = false; // responses never need `all`
    if (args.shardIndex >= 0) {
        opts.shardIndex = args.shardIndex;
        opts.shardCount = args.shardCount;
    }
    tools::ServeStats stats;
    const std::vector<std::string> responses =
        tools::serveRequests(lines, opts, &stats);

    bool io_ok = withStream(kTool, args.outPath, [&](std::ostream &os) {
        for (const std::string &r : responses)
            os << r << "\n";
    });

    obs::Registry reg;
    tools::registerServeStats(reg, stats,
                              tools::installedSolveCache());
    if (!args.registryPath.empty())
        io_ok &= withStream(kTool, args.registryPath, [&](std::ostream &os) {
            obs::writeRegistryDump(os, {{"serve", &reg}});
        });
    if (!args.openMetricsPath.empty()) {
        // Through the same merge renderer the sharded path uses, so
        // sharded and unsharded expositions are byte-comparable.
        tools::RegistryShard shard;
        shard.registries.emplace_back("serve", reg);
        io_ok &=
            withStream(kTool, args.openMetricsPath, [&](std::ostream &os) {
                tools::writeMergedOpenMetrics(os, {shard});
            });
    }
    if (!io_ok)
        return 3;
    return stats.failed == 0 ? 0 : 1;
}

/** Fork+exec one worker per shard, then merge what they wrote. */
int
serveSharded(const CliArgs &args)
{
    const int n = args.shards;
    const bool want_registry = !args.registryPath.empty() ||
                               !args.openMetricsPath.empty();
    std::vector<std::string> shard_outs, shard_regs;
    std::vector<pid_t> pids;
    for (int i = 0; i < n; ++i) {
        shard_outs.push_back(args.outPath + ".shard" +
                             std::to_string(i));
        shard_regs.push_back(args.outPath + ".shard" +
                             std::to_string(i) + ".registry");
        std::vector<std::string> argv_s = {
            "/proc/self/exe",
            "--requests", args.requestsPath,
            "--out", shard_outs.back(),
            "--shard", std::to_string(i) + "/" + std::to_string(n),
            "--jobs", std::to_string(args.jobs),
        };
        if (!args.cacheMode.empty()) {
            argv_s.push_back("--cache");
            argv_s.push_back(args.cacheMode);
        }
        if (!args.cacheDir.empty()) {
            argv_s.push_back("--cache-dir");
            argv_s.push_back(args.cacheDir);
        }
        if (want_registry) {
            argv_s.push_back("--registry");
            argv_s.push_back(shard_regs.back());
        }
        std::vector<char *> argv_c;
        argv_c.reserve(argv_s.size() + 1);
        for (std::string &s : argv_s)
            argv_c.push_back(s.data());
        argv_c.push_back(nullptr);

        const pid_t pid = ::fork();
        if (pid < 0) {
            std::fprintf(stderr, "cactid-serve: fork failed\n");
            return 3;
        }
        if (pid == 0) {
            ::execv("/proc/self/exe", argv_c.data());
            std::fprintf(stderr, "cactid-serve: exec failed\n");
            _exit(3);
        }
        pids.push_back(pid);
    }

    bool any_failed_request = false;
    bool worker_error = false;
    for (const pid_t pid : pids) {
        int status = 0;
        if (::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status)) {
            worker_error = true;
            continue;
        }
        const int code = WEXITSTATUS(status);
        if (code == 1)
            any_failed_request = true;
        else if (code != 0)
            worker_error = true;
    }
    if (worker_error) {
        std::fprintf(stderr, "cactid-serve: a shard worker failed\n");
        return 3;
    }

    // Merge responses by global request index: byte-identical to the
    // unsharded run because every line already carries its index.
    std::map<std::size_t, std::string> merged;
    for (const std::string &path : shard_outs) {
        std::ifstream f(path);
        if (!f) {
            std::fprintf(stderr,
                         "cactid-serve: missing shard output %s\n",
                         path.c_str());
            return 3;
        }
        std::string line;
        while (std::getline(f, line)) {
            if (line.empty())
                continue;
            std::size_t index = 0;
            if (!tools::responseIndex(line, index)) {
                std::fprintf(
                    stderr,
                    "cactid-serve: malformed shard response in %s\n",
                    path.c_str());
                return 3;
            }
            merged[index] = line;
        }
    }
    bool io_ok = withStream(kTool, args.outPath, [&](std::ostream &os) {
        for (const auto &[index, line] : merged)
            os << line << "\n";
    });

    if (want_registry) {
        std::vector<tools::RegistryShard> shards;
        for (const std::string &path : shard_regs) {
            tools::RegistryShard shard;
            std::string err;
            if (!tools::loadRegistryDump(path, shard, &err)) {
                std::fprintf(stderr, "cactid-serve: %s\n",
                             err.c_str());
                return 3;
            }
            shards.push_back(std::move(shard));
        }
        const auto merged_regs = tools::mergeShards(shards);
        if (!args.registryPath.empty()) {
            std::vector<std::pair<std::string, const obs::Registry *>>
                items;
            items.reserve(merged_regs.size());
            for (const auto &[label, reg] : merged_regs)
                items.emplace_back(label, &reg);
            io_ok &=
                withStream(kTool, args.registryPath, [&](std::ostream &os) {
                    obs::writeRegistryDump(os, items);
                });
        }
        if (!args.openMetricsPath.empty()) {
            tools::RegistryShard one;
            one.registries = merged_regs;
            io_ok &= withStream(kTool, args.openMetricsPath,
                                [&](std::ostream &os) {
                                    tools::writeMergedOpenMetrics(
                                        os, {one});
                                });
        }
    }

    // The shard temporaries served their purpose.
    for (const std::string &path : shard_outs)
        ::unlink(path.c_str());
    for (const std::string &path : shard_regs)
        ::unlink(path.c_str());

    if (!io_ok)
        return 3;
    return any_failed_request ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args = parseArgs(argc, argv);
    if (!args.ok)
        return 2;
    if (args.version) {
        std::printf("%s\n",
                    obs::versionLine("cactid-serve").c_str());
        return 0;
    }
    if (args.help) {
        printHelp();
        return 0;
    }

    return tools::runGuarded(kTool, [&] {
        tools::installSolveCache(args.cacheMode, args.cacheDir);
        if (args.shards > 1)
            return serveSharded(args);
        return serveInProcess(args);
    });
}
