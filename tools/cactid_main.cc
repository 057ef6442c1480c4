/**
 * @file
 * The `cactid` command-line tool: solve a memory configuration read
 * from a config file (or stdin) and print the chosen organization, a
 * CSV of the filtered solution space, or a capacity sweep.
 *
 * The flag table in commandLine() drives parsing and `--help`.
 *
 * Exit codes: 0 success; 2 usage or configuration error, including a
 * flag value below its bound (`--jobs -1`), `--sweep` with `--csv` or
 * `--registry`, an unusable `--cache-dir`, a malformed config value
 * (`associativity = 4x`) and a config with no feasible organization;
 * 3 internal error (unexpected exception, failed output write).
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cacti.hh"
#include "obs/export.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "core/solve_cache.hh"
#include "tools/cli.hh"
#include "tools/config_parser.hh"

namespace {

using cactid::tools::withStream;

constexpr const char *kTool = "cactid";

void
printCsv(const cactid::SolveResult &res)
{
    std::printf("access_ns,cycle_ns,interleave_ns,area_mm2,"
                "area_efficiency,read_nJ,write_nJ,leakage_W,refresh_W,"
                "rows,cols,blmux,sammux,mats\n");
    for (const cactid::Solution &s : res.filtered) {
        std::printf("%.4f,%.4f,%.4f,%.3f,%.3f,%.4f,%.4f,%.4f,%.5f,"
                    "%d,%d,%d,%d,%d\n",
                    s.accessTime * 1e9, s.randomCycle * 1e9,
                    s.interleaveCycle * 1e9, s.totalArea * 1e6,
                    s.areaEfficiency, s.readEnergy * 1e9,
                    s.writeEnergy * 1e9, s.leakage, s.refreshPower,
                    s.data.part.rowsPerSubarray,
                    s.data.part.colsPerSubarray, s.data.part.blMux,
                    s.data.part.samMux, s.data.nMats);
    }
}

void
printSweep(cactid::MemoryConfig cfg, const std::string &list,
           const cactid::SolverOptions &opts, bool stats)
{
    std::printf("%-10s %9s %10s %10s %9s %9s\n", "capacity", "acc(ns)",
                "area(mm2)", "rdE(nJ)", "leak(W)", "refresh(W)");
    // One batch: the capacities solve side by side on opts.jobs
    // threads, and the rows print once every one of them has solved.
    std::vector<std::string> items;
    std::vector<cactid::MemoryConfig> cfgs;
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
        cfg.capacityBytes = cactid::tools::parseCapacity(item);
        items.push_back(item);
        cfgs.push_back(cfg);
    }
    const std::vector<cactid::SolveResult> results =
        cactid::SolverEngine(opts).solveBatch(cfgs);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const cactid::SolveResult &res = results[i];
        const cactid::Solution &s = res.best;
        std::printf("%-10s %9.3f %10.2f %10.3f %9.3f %9.4f\n",
                    items[i].c_str(), s.accessTime * 1e9,
                    s.totalArea * 1e6, s.readEnergy * 1e9, s.leakage,
                    s.refreshPower);
        if (stats) {
            std::printf("  [%llu enumerated, %llu kept, %.2f ms]\n",
                        static_cast<unsigned long long>(
                            res.stats.partitionsEnumerated),
                        static_cast<unsigned long long>(
                            res.filtered.size()),
                        res.stats.totalSeconds * 1e3);
        }
    }
}

struct CliArgs {
    std::string configPath;
    std::string sweep;
    std::string tracePath;
    std::string registryPath;
    std::string cacheDir;
    bool csv = false;
    bool stats = false;
    bool profile = false;
    int jobs = 0;
};

cactid::tools::CommandLine
commandLine(CliArgs &a)
{
    std::vector<cactid::tools::Flag> flags = {
        {"--csv", nullptr, "print a CSV of the filtered solutions", &a.csv},
        {"--sweep", "A,B", "capacity sweep (K/M/G suffixes)", &a.sweep},
        {"--jobs", "N", "worker threads (0 = all cores)", &a.jobs},
        {"--stats", nullptr, "print engine instrumentation", &a.stats},
        {"--trace", "FILE", "write profiling spans as Chrome trace JSON (- "
         "for stdout)", &a.tracePath},
        {"--profile", nullptr, "span summary on stderr", &a.profile},
        {"--registry", "FILE", "solver counters as cactid-obs-v1",
         &a.registryPath},
        {"--cache-dir", "DIR", "memoize solves in records under DIR, shared "
         "across runs", &a.cacheDir},
    };
    return {
        kTool,
        "cactid - analytical memory modeling (CACTI-D reproduction)\n\n"
        "usage: cactid <config-file> [options]   (- reads the config "
        "from stdin)\n",
        std::move(flags),
        "\nconfig keys: size block associativity banks type access_mode\n"
        "  technology tag_technology feature_nm temperature_k sleep_tx\n"
        "  ecc max_area max_acctime repeater_derate weight_* io_bits\n"
        "  burst_length prefetch_width page_bytes address_bits\n"
        "\nexit codes: 0 success; 2 usage, configuration error or no "
        "feasible\norganization; 3 internal error\n",
        &a.configPath};
}

/**
 * Emit the wall-clock observability outputs: the profiling-span trace
 * (clock domain µs) and/or the span summary table.
 */
bool
emitSpans(const CliArgs &args)
{
    if (args.tracePath.empty() && !args.profile)
        return true;
    cactid::obs::Tracer &tracer = cactid::obs::Tracer::instance();
    const std::vector<cactid::obs::TraceEvent> spans =
        tracer.collect();
    bool ok = true;
    if (!args.tracePath.empty()) {
        cactid::obs::TraceMeta meta;
        meta.processes.emplace_back(0u, "cactid");
        meta.clockDomain = "us";
        meta.dropped = tracer.dropped();
        std::vector<cactid::obs::TraceEvent> events = spans;
        cactid::obs::canonicalizeTrace(events);
        ok &= withStream(kTool, args.tracePath, [&](std::ostream &os) {
            cactid::obs::writeChromeTrace(os, events, meta);
        });
    }
    if (args.profile)
        cactid::obs::writeProfileSummary(std::cerr, spans);
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args;
    const cactid::tools::CommandLine cl = commandLine(args);
    if (const std::optional<int> rc =
            cactid::tools::parseCommandLine(cl, argc, argv))
        return *rc;
    if (args.configPath.empty()) {
        std::fprintf(stderr, "%s: no config file (- reads stdin; see "
                     "--help)\n", kTool);
        return 2;
    }
    if (!args.tracePath.empty() || args.profile)
        cactid::obs::Tracer::instance().enable(true);

    return cactid::tools::runGuarded(kTool, [&] {
        // A sweep prints its own table: no CSV, no registry.
        if (!args.sweep.empty() && args.csv)
            throw std::invalid_argument("--sweep cannot be combined with "
                                        "--csv");
        if (!args.sweep.empty() && !args.registryPath.empty())
            throw std::invalid_argument("--sweep cannot be combined with "
                                        "--registry");

        // One process solves once (or one batch), so only records on
        // disk can ever hit: the cache exists only behind --cache-dir.
        const std::unique_ptr<cactid::SolveCache> cache =
            cactid::tools::openSolveCache(kTool, args.cacheDir);
        cactid::SolverOptions opts;
        opts.jobs = args.jobs;
        opts.cache = cache.get();

        cactid::MemoryConfig cfg;
        if (args.configPath == "-") {
            cfg = cactid::tools::parseConfig(std::cin);
        } else {
            std::ifstream f(args.configPath);
            if (!f) {
                std::fprintf(stderr, "cactid: cannot open %s\n",
                             args.configPath.c_str());
                return 2;
            }
            cfg = cactid::tools::parseConfig(f);
        }

        if (!args.sweep.empty()) {
            printSweep(cfg, args.sweep, opts, args.stats);
            return emitSpans(args) ? 0 : 3;
        }

        const cactid::SolveResult res = cactid::solve(cfg, opts);
        bool io_ok = true;
        if (!args.registryPath.empty()) {
            cactid::obs::Registry reg;
            cactid::registerEngineStats(reg, res.stats);
            if (cache)
                cactid::registerSolveCacheStats(reg, cache->counters());
            io_ok &=
                withStream(kTool, args.registryPath, [&](std::ostream &os) {
                    cactid::obs::writeRegistryDump(
                        os, {{"solve", &reg}});
                });
        }
        if (args.csv) {
            printCsv(res);
            if (args.stats)
                std::fprintf(stderr, "%s",
                             res.stats.report().c_str());
            io_ok &= emitSpans(args);
            return io_ok ? 0 : 3;
        }

        std::printf("=== %s ===\n", cfg.summary().c_str());
        std::printf("%s", res.best.report().c_str());
        std::printf("(%llu organizations explored, %zu passed the "
                    "constraints)\n",
                    static_cast<unsigned long long>(
                        res.stats.solutionsBuilt),
                    res.filtered.size());
        if (args.stats)
            std::printf("%s", res.stats.report().c_str());
        io_ok &= emitSpans(args);
        return io_ok ? 0 : 3;
    });
}
