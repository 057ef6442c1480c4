/**
 * @file
 * The `cactid-study` command-line tool: run the section-4 LLC study
 * sweep (6 configurations x 8 NPB workloads) across a worker pool and
 * export the Figure-4/5 aggregates and the per-epoch metric streams
 * as JSON and CSV.
 *
 * printHelp() (`--help`) lists every flag; numeric flag values must
 * be whole integers.
 *
 * Exit codes: 0 every run Ok; 1 the sweep completed but some run is
 * non-Ok (failed / timed out); 2 usage or configuration error; 3
 * internal error (unexpected exception, failed output write).
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "obs/build_info.hh"
#include "obs/export.hh"
#include "obs/trace.hh"
#include "sim/resilience.hh"
#include "sim/runner.hh"
#include "tools/cache_cli.hh"
#include "tools/cli.hh"

namespace {

using namespace archsim;
using cactid::tools::withStream;

constexpr const char *kTool = "cactid-study";

void
printHelp()
{
    std::printf(
        "cactid-study - parallel LLC study sweep (paper section 4)\n"
        "\n"
        "usage: cactid-study [options]\n"
        "  --jobs N           worker threads (0 = all cores; default 0)\n"
        "  --instr N          instructions per hardware thread\n"
        "                     (default: ARCHSIM_INSTR or 150000)\n"
        "  --epoch N          epoch sampling interval in CPU cycles\n"
        "                     (default 20000; 0 disables sampling)\n"
        "  --configs a,b      subset of: nol3 sram lp_dram_ed lp_dram_c\n"
        "                     cm_dram_ed cm_dram_c\n"
        "  --workloads x,y    subset of: bt.C cg.C ft.B is.C lu.C mg.B\n"
        "                     sp.C ua.C\n"
        "  --json FILE        write the sweep as JSON (- for stdout)\n"
        "  --csv FILE         write per-epoch metrics CSV (- for stdout)\n"
        "  --summary-csv FILE write per-run aggregate CSV (- for stdout)\n"
        "  --no-thermal       skip stack-temperature solves\n"
        "  --table3           print the Table-3 projections first\n"
        "  --quiet            suppress the aggregate table\n"
        "  --trace FILE       write simulator events as Chrome trace\n"
        "                     JSON (- for stdout; simulated-cycle\n"
        "                     clock, byte-identical for any --jobs)\n"
        "  --trace-capacity N per-run event ring size (default 16384)\n"
        "  --cache on|off     memoize the study's LLC solves (default\n"
        "                     off, on when --cache-dir is given; the\n"
        "                     sweep output is byte-identical either\n"
        "                     way)\n"
        "  --cache-dir DIR    persist solve-cache records under DIR,\n"
        "                     shared across runs; records from another\n"
        "                     build are rejected and re-solved\n"
        "  --registry FILE    write per-run counters as cactid-obs-v1\n"
        "  --openmetrics FILE write per-run counters in the\n"
        "                     OpenMetrics text exposition (- for\n"
        "                     stdout; run=\"workload/config\" labels)\n"
        "  --latency-histograms\n"
        "                     record per-level access-latency and\n"
        "                     queueing distributions (sim.lat.* in\n"
        "                     the registry, percentiles in the JSON;\n"
        "                     byte-identical for any --jobs)\n"
        "  --telemetry FILE   append a live cactid-telemetry-v1 JSONL\n"
        "                     snapshot (atomically rewritten; wall-\n"
        "                     clock fields under per-record \"host\"\n"
        "                     objects, everything else deterministic)\n"
        "  --telemetry-interval MS\n"
        "                     heartbeat period in milliseconds\n"
        "                     (default 1000)\n"
        "  --profile          wall-clock span summary on stderr\n"
        "  --checkpoint DIR   persist each completed run atomically\n"
        "                     under DIR (incompatible with --trace)\n"
        "  --resume           with --checkpoint: reuse valid records,\n"
        "                     re-run missing/failed; merged output is\n"
        "                     byte-identical to an uninterrupted sweep\n"
        "  --max-cycles N     per-run simulated-cycle budget; a run\n"
        "                     over budget lands as timed_out at a\n"
        "                     deterministic cycle (0 = unlimited)\n"
        "  --max-wall-ms N    per-run wall-clock budget in ms\n"
        "                     (machine-dependent; 0 = unlimited)\n"
        "  --retry N          total attempts per failed run\n"
        "                     (default 1 = no retry)\n"
        "  --retry-timeouts   also retry timed-out runs\n"
        "  --cores N          cores per simulated system (default 8;\n"
        "                     >16 needs a directory: auto switches to\n"
        "                     the sparse directory with a warning)\n"
        "  --threads-per-core N\n"
        "                     hardware threads per core (default 4)\n"
        "  --dir-mode MODE    sharer tracking: auto (default),\n"
        "                     broadcast, or sparse (limited-pointer\n"
        "                     directory)\n"
        "  --dir-sets N       sparse-directory sets (power of two;\n"
        "                     0 = auto-size to 2x the L2 lines)\n"
        "  --dir-assoc N      sparse-directory ways per set (default 8)\n"
        "  --dir-pointers N   exact core pointers per entry (default 4)\n"
        "  --fault-plan SPEC  inject deterministic faults (testing);\n"
        "                     SPEC = INDEX@SITE[:CYCLE][xN],... with\n"
        "                     SITE one of solve step timeout export\n"
        "  --version          print the build stamp\n"
        "\n"
        "exit codes: 0 all runs ok; 1 sweep completed with non-ok\n"
        "runs; 2 usage/configuration error; 3 internal error\n");
}

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

struct CliArgs {
    int jobs = 0;
    std::uint64_t instr = 0;
    archsim::Cycle epoch = 20000;
    std::string configs, workloads;
    std::string jsonPath, csvPath, summaryPath;
    std::string tracePath, registryPath, openMetricsPath;
    std::string telemetryPath;
    std::uint64_t telemetryIntervalMs = 1000;
    bool telemetryIntervalSet = false;
    bool latencyHistograms = false;
    std::string checkpointDir, faultPlanSpec;
    std::string cacheMode, cacheDir;
    std::size_t traceCapacity = 1 << 14;
    archsim::Cycle maxCycles = 0;
    std::uint64_t maxWallMs = 0;
    int retry = 1;
    int cores = 0;
    int threadsPerCore = 0;
    std::string dirMode = "auto";
    std::size_t dirSets = 0;
    int dirAssoc = 8;
    int dirPointers = 4;
    bool retryTimeouts = false;
    bool resume = false;
    bool profile = false;
    bool thermal = true;
    bool table3 = false;
    bool quiet = false;
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
        else if (f.is("--jobs"))
            f.number(a.jobs);
        else if (f.is("--instr"))
            f.number(a.instr);
        else if (f.is("--epoch"))
            f.number(a.epoch);
        else if (f.is("--configs"))
            f.text(a.configs);
        else if (f.is("--workloads"))
            f.text(a.workloads);
        else if (f.is("--json"))
            f.text(a.jsonPath);
        else if (f.is("--csv"))
            f.text(a.csvPath);
        else if (f.is("--summary-csv"))
            f.text(a.summaryPath);
        else if (f.is("--trace"))
            f.text(a.tracePath);
        else if (f.is("--trace-capacity"))
            f.number(a.traceCapacity);
        else if (f.is("--registry"))
            f.text(a.registryPath);
        else if (f.is("--openmetrics"))
            f.text(a.openMetricsPath);
        else if (f.is("--telemetry"))
            f.text(a.telemetryPath);
        else if (f.is("--telemetry-interval")) {
            f.number(a.telemetryIntervalMs);
            a.telemetryIntervalSet = true;
        } else if (f.is("--latency-histograms"))
            a.latencyHistograms = true;
        else if (f.is("--cache"))
            f.text(a.cacheMode);
        else if (f.is("--cache-dir"))
            f.text(a.cacheDir);
        else if (f.is("--checkpoint"))
            f.text(a.checkpointDir);
        else if (f.is("--resume"))
            a.resume = true;
        else if (f.is("--max-cycles"))
            f.number(a.maxCycles);
        else if (f.is("--max-wall-ms"))
            f.number(a.maxWallMs);
        else if (f.is("--retry"))
            f.number(a.retry);
        else if (f.is("--cores"))
            f.number(a.cores);
        else if (f.is("--threads-per-core"))
            f.number(a.threadsPerCore);
        else if (f.is("--dir-mode"))
            f.text(a.dirMode);
        else if (f.is("--dir-sets"))
            f.number(a.dirSets);
        else if (f.is("--dir-assoc"))
            f.number(a.dirAssoc);
        else if (f.is("--dir-pointers"))
            f.number(a.dirPointers);
        else if (f.is("--retry-timeouts"))
            a.retryTimeouts = true;
        else if (f.is("--fault-plan"))
            f.text(a.faultPlanSpec);
        else if (f.is("--profile"))
            a.profile = true;
        else if (f.is("--version"))
            a.version = true;
        else if (f.is("--no-thermal"))
            a.thermal = false;
        else if (f.is("--table3"))
            a.table3 = true;
        else if (f.is("--quiet"))
            a.quiet = true;
        else
            f.fail(std::string("unknown flag ") + f.arg());
    }
    if (a.resume && a.checkpointDir.empty())
        f.fail("--resume requires --checkpoint");
    if (!a.checkpointDir.empty() && !a.tracePath.empty())
        f.fail("--checkpoint cannot be combined with --trace (event "
               "streams are not checkpointed)");
    if (!a.checkpointDir.empty() && a.latencyHistograms)
        f.fail("--checkpoint cannot be combined with "
               "--latency-histograms (distributions are not "
               "checkpointed)");
    if (a.telemetryIntervalSet && a.telemetryPath.empty())
        f.fail("--telemetry-interval requires --telemetry");
    if (a.telemetryIntervalSet && a.telemetryIntervalMs < 1)
        f.fail("--telemetry-interval needs a value >= 1");
    if (a.retry < 1)
        f.fail("--retry needs a value >= 1");
    if (a.dirMode != "auto" && a.dirMode != "broadcast" &&
        a.dirMode != "sparse")
        f.fail("--dir-mode must be auto, broadcast or sparse (got " +
               a.dirMode + ")");
    if (a.cores < 0)
        f.fail("--cores needs a value >= 1");
    if (a.dirSets != 0 && (a.dirSets & (a.dirSets - 1)) != 0)
        f.fail("--dir-sets must be a power of two (got " +
               std::to_string(a.dirSets) + ")");
    if (a.dirAssoc < 1 || a.dirPointers < 1)
        f.fail("--dir-assoc and --dir-pointers need values >= 1");
    a.ok = f.ok();
    return a;
}

void
printAggregates(const std::vector<RunResult> &runs, bool thermal)
{
    std::printf("%-6s %-11s %8s %6s %12s %9s %9s",
                "app", "config", "cycles", "IPC", "read-lat(cyc)",
                "mh-pwr(W)", "EDP-norm");
    if (thermal)
        std::printf(" %9s", "Tmax(K)");
    std::printf("\n");
    std::string last_workload;
    double edp_base = 0.0;
    for (const RunResult &r : runs) {
        if (r.workload != last_workload && !last_workload.empty())
            std::printf("\n");
        if (r.workload != last_workload)
            edp_base = 0.0;
        last_workload = r.workload;
        if (!r.ok()) {
            std::printf("%-6s %-11s %s (phase %s, cycle %llu): %s\n",
                        r.workload.c_str(), r.config.c_str(),
                        runStatusName(r.status),
                        r.error.phase.empty() ? "?"
                                              : r.error.phase.c_str(),
                        static_cast<unsigned long long>(r.error.cycle),
                        r.error.message.c_str());
            continue;
        }
        if (r.config == "nol3")
            edp_base = r.power.edp();
        std::printf("%-6s %-11s %8llu %6.2f %12.1f %9.2f %9.3f",
                    r.workload.c_str(), r.config.c_str(),
                    static_cast<unsigned long long>(r.stats.cycles),
                    r.stats.ipc, r.stats.avgReadLatency,
                    r.power.memoryHierarchy(),
                    edp_base > 0 ? r.power.edp() / edp_base : 0.0);
        if (thermal)
            std::printf(" %9.2f", r.thermal.maxTemp);
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args = parseArgs(argc, argv);
    if (!args.ok)
        return 2;
    if (args.version) {
        std::printf(
            "%s\n",
            cactid::obs::versionLine("cactid-study").c_str());
        return 0;
    }
    if (args.help) {
        printHelp();
        return 0;
    }
    if (args.profile)
        cactid::obs::Tracer::instance().enable(true);

    return cactid::tools::runGuarded(kTool, [&] {
        // Install the solve cache before the Study constructor runs
        // its eight LLC solves, so those are memoized too.
        cactid::tools::installSolveCache(args.cacheMode, args.cacheDir);

        Study study;
        if (args.table3)
            study.printTable3(std::cout);

        RunnerOptions opts;
        opts.jobs = args.jobs;
        opts.instrPerThread = args.instr;
        opts.epochCycles = args.epoch;
        opts.thermal = args.thermal;
        opts.configs = splitList(args.configs);
        opts.workloads = splitList(args.workloads);
        opts.trace = !args.tracePath.empty();
        opts.traceCapacity = args.traceCapacity;
        opts.latencyHistograms = args.latencyHistograms;

        // Telemetry write failures degrade like checkpoint failures:
        // the sweep completes, the tool exits 3.
        std::mutex telem_mtx;
        std::string telem_err;
        bool telem_ok = true;
        if (!args.telemetryPath.empty()) {
            opts.telemetry.path = args.telemetryPath;
            opts.telemetry.intervalMs = args.telemetryIntervalMs;
            opts.telemetry.onError = [&](const std::string &msg) {
                const std::lock_guard<std::mutex> lock(telem_mtx);
                telem_ok = false;
                if (telem_err.empty())
                    telem_err = msg;
            };
        }
        opts.maxCycles = args.maxCycles;
        opts.maxWallMs = args.maxWallMs;
        opts.nCores = args.cores;
        opts.threadsPerCore = args.threadsPerCore;
        if (args.dirMode == "broadcast")
            opts.dirMode = DirectoryMode::Broadcast;
        else if (args.dirMode == "sparse")
            opts.dirMode = DirectoryMode::Sparse;
        opts.dir.sets = args.dirSets;
        opts.dir.assoc = args.dirAssoc;
        opts.dir.pointers = args.dirPointers;
        opts.retry.maxAttempts = args.retry;
        opts.retry.retryTimeouts = args.retryTimeouts;
        if (!args.faultPlanSpec.empty())
            opts.faultPlan = FaultPlan::parse(args.faultPlanSpec);

        // Checkpointing hangs off the runner hooks: completed runs
        // persist atomically from the worker that ran them, and
        // --resume places Ok records back into their slots without
        // re-executing.  A save failure degrades to a warning plus
        // exit code 3 — the sweep itself still completes.
        std::unique_ptr<CheckpointStore> store;
        std::mutex ckpt_mtx;
        std::string ckpt_err;
        bool ckpt_ok = true;
        if (!args.checkpointDir.empty()) {
            const StudyRunner probe(study, opts);
            store = std::make_unique<CheckpointStore>(
                args.checkpointDir, probe.fingerprint());
            std::string err;
            if (!store->ensureDir(&err)) {
                std::fprintf(stderr, "cactid-study: %s\n",
                             err.c_str());
                return 3;
            }
            const FaultPlan plan = opts.faultPlan;
            CheckpointStore *st = store.get();
            opts.onRunComplete = [&, plan,
                                  st](std::size_t index,
                                      const RunResult &r) {
                std::string save_err;
                bool saved = false;
                if (plan.fires(index, FaultSite::Export, r.attempts))
                    save_err = "injected export fault (run " +
                               std::to_string(index) + ")";
                else
                    saved = st->save(r, &save_err);
                if (!saved) {
                    const std::lock_guard<std::mutex> lock(ckpt_mtx);
                    ckpt_ok = false;
                    if (ckpt_err.empty())
                        ckpt_err = save_err;
                }
            };
            if (args.resume) {
                opts.reuseRun = [st](std::size_t,
                                     const std::string &config,
                                     const std::string &workload,
                                     RunResult &out) {
                    RunResult r;
                    if (st->load(config, workload, r) !=
                        CheckpointStore::Load::Loaded)
                        return false;
                    if (!r.ok()) // failed runs re-execute on resume
                        return false;
                    out = std::move(r);
                    return true;
                };
            }
        }
        const StudyRunner runner(study, opts);

        const std::vector<RunResult> runs = runner.runAll();

        if (!args.quiet)
            printAggregates(runs, args.thermal);

        bool io_ok = true;
        if (!args.jsonPath.empty())
            io_ok &= withStream(kTool, args.jsonPath, [&](std::ostream &os) {
                exportJson(os, runs, runner);
            });
        if (!args.csvPath.empty())
            io_ok &= withStream(kTool, args.csvPath, [&](std::ostream &os) {
                exportEpochsCsv(os, runs);
            });
        if (!args.summaryPath.empty())
            io_ok &=
                withStream(kTool, args.summaryPath, [&](std::ostream &os) {
                    exportSummaryCsv(os, runs);
                });
        if (!args.tracePath.empty())
            io_ok &= withStream(kTool, args.tracePath, [&](std::ostream &os) {
                exportTraceJson(os, runs);
            });
        if (!args.registryPath.empty())
            io_ok &=
                withStream(kTool, args.registryPath, [&](std::ostream &os) {
                    exportRegistry(os, runs);
                });
        if (!args.openMetricsPath.empty())
            io_ok &=
                withStream(kTool, args.openMetricsPath, [&](std::ostream &os) {
                    exportOpenMetrics(os, runs);
                });
        if (args.profile) {
            cactid::obs::writeProfileSummary(
                std::cerr, cactid::obs::Tracer::instance().collect());
        }
        if (!ckpt_ok)
            std::fprintf(stderr,
                         "cactid-study: checkpoint write failed: %s\n",
                         ckpt_err.c_str());
        if (!telem_ok)
            std::fprintf(stderr, "cactid-study: %s\n",
                         telem_err.c_str());
        if (!io_ok || !ckpt_ok || !telem_ok)
            return 3;
        for (const RunResult &r : runs) {
            if (!r.ok())
                return 1;
        }
        return 0;
    });
}
