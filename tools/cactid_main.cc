/**
 * @file
 * The `cactid` command-line tool: solve a memory configuration read
 * from a config file (or stdin) and print the chosen organization, a
 * CSV of the filtered solution space, or a capacity sweep.
 *
 * printHelp() (`--help`) lists every flag.
 *
 * Exit codes: 0 success; 2 usage or configuration error; 3 internal
 * error (unexpected exception, failed output write).
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cacti.hh"
#include "obs/build_info.hh"
#include "obs/export.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "core/solve_cache.hh"
#include "tools/cache_cli.hh"
#include "tools/cli.hh"
#include "tools/config_parser.hh"

namespace {

using cactid::tools::withStream;

constexpr const char *kTool = "cactid";

void
printHelp()
{
    std::printf(
        "cactid - analytical memory modeling (CACTI-D reproduction)\n"
        "\n"
        "usage:\n"
        "  cactid <config-file>              solve and report\n"
        "  cactid <config-file> --csv        CSV of filtered solutions\n"
        "  cactid <config-file> --sweep A,B  capacity sweep (K/M/G "
        "suffixes)\n"
        "  cactid <config-file> --jobs N     worker threads (0 = all "
        "cores)\n"
        "  cactid <config-file> --stats      print engine "
        "instrumentation\n"
        "  cactid <config-file> --trace FILE write profiling spans as "
        "Chrome\n"
        "                                    trace JSON (- for stdout)\n"
        "  cactid <config-file> --profile    span summary on stderr\n"
        "  cactid <config-file> --registry FILE\n"
        "                                    solver counters as "
        "cactid-obs-v1\n"
        "  cactid <config-file> --cache on|off\n"
        "                                    memoize solves (default "
        "off,\n"
        "                                    on when --cache-dir is "
        "given)\n"
        "  cactid <config-file> --cache-dir DIR\n"
        "                                    persist cache records "
        "under DIR\n"
        "  cactid --version                  build stamp\n"
        "  cactid -                          read the config from "
        "stdin\n"
        "\n"
        "config keys: size block associativity banks type access_mode\n"
        "  technology tag_technology feature_nm temperature_k sleep_tx\n"
        "  ecc max_area max_acctime repeater_derate weight_* io_bits\n"
        "  burst_length prefetch_width page_bytes address_bits jobs\n"
        "  collect_all\n");
}

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
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
        cfg.capacityBytes = cactid::tools::parseCapacity(item);
        const cactid::SolveResult res = cactid::solve(cfg, opts);
        const cactid::Solution &s = res.best;
        std::printf("%-10s %9.3f %10.2f %10.3f %9.3f %9.4f\n",
                    item.c_str(), s.accessTime * 1e9,
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
    std::string cacheMode;
    std::string cacheDir;
    bool csv = false;
    bool stats = false;
    bool profile = false;
    int jobs = -1; ///< -1: not given on the command line
    bool version = false;
    bool help = false;
    bool ok = true;
};

CliArgs
parseArgs(int argc, char **argv)
{
    CliArgs a;
    cactid::tools::ArgReader f(kTool, argc, argv);
    while (f.next()) {
        if (f.is("--help") || f.is("-h"))
            a.help = true;
        else if (f.is("--version"))
            a.version = true;
        else if (f.is("--csv"))
            a.csv = true;
        else if (f.is("--stats"))
            a.stats = true;
        else if (f.is("--profile"))
            a.profile = true;
        else if (f.is("--trace"))
            f.text(a.tracePath);
        else if (f.is("--registry"))
            f.text(a.registryPath);
        else if (f.is("--cache"))
            f.text(a.cacheMode);
        else if (f.is("--cache-dir"))
            f.text(a.cacheDir);
        else if (f.is("--jobs"))
            f.number(a.jobs);
        else if (f.is("--sweep"))
            f.text(a.sweep);
        else if (f.arg()[0] == '-' && !f.is("-"))
            f.fail(std::string("unknown flag ") + f.arg());
        else if (a.configPath.empty())
            a.configPath = f.arg();
        else
            f.fail(std::string("extra argument ") + f.arg());
    }
    a.ok = f.ok();
    return a;
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
    const CliArgs args = parseArgs(argc, argv);
    if (!args.ok)
        return 2;
    if (args.version) {
        std::printf("%s\n",
                    cactid::obs::versionLine("cactid").c_str());
        return 0;
    }
    if (args.help || args.configPath.empty()) {
        printHelp();
        return args.help ? 0 : 2;
    }
    if (!args.tracePath.empty() || args.profile)
        cactid::obs::Tracer::instance().enable(true);

    return cactid::tools::runGuarded(kTool, [&] {
        cactid::tools::installSolveCache(args.cacheMode, args.cacheDir);

        cactid::MemoryConfig cfg;
        cactid::SolverOptions opts;
        if (args.configPath == "-") {
            cfg = cactid::tools::parseConfig(std::cin, &opts);
        } else {
            std::ifstream f(args.configPath);
            if (!f) {
                std::fprintf(stderr, "cactid: cannot open %s\n",
                             args.configPath.c_str());
                return 2;
            }
            cfg = cactid::tools::parseConfig(f, &opts);
        }
        if (args.jobs >= 0) // command line overrides the config file
            opts.jobs = args.jobs;

        if (!args.sweep.empty()) {
            printSweep(cfg, args.sweep, opts, args.stats);
            return emitSpans(args) ? 0 : 3;
        }

        const cactid::SolveResult res = cactid::solve(cfg, opts);
        bool io_ok = true;
        if (!args.registryPath.empty()) {
            cactid::obs::Registry reg;
            cactid::registerEngineStats(reg, res.stats);
            if (const cactid::SolveCache *cache =
                    cactid::tools::installedSolveCache())
                cactid::registerSolveCacheStats(reg,
                                                cache->counters());
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
