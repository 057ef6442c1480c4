/**
 * @file
 * The `cactid-study` command-line tool: run the section-4 LLC study
 * sweep (6 configurations x 8 NPB workloads) across a worker pool and
 * export the Figure-4/5 aggregates and the per-epoch metric streams
 * as JSON and CSV.
 *
 * The flag table in commandLine() drives parsing and `--help`;
 * numeric flag values must be whole integers at or above their bound.
 *
 * Exit codes: 0 every run Ok; 1 the sweep completed but some run is
 * non-Ok (failed / timed out); 2 usage or configuration error,
 * including a flag value below its bound (`--jobs -1`,
 * `--threads-per-core -1`, `--cores -1`, `--instr 0`,
 * `--trace-capacity 0`) and an unusable `--cache-dir` or
 * `--checkpoint` directory; 3 internal error (unexpected exception,
 * failed output or checkpoint write).
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/solve_cache.hh"
#include "obs/export.hh"
#include "obs/trace.hh"
#include "sim/resilience.hh"
#include "sim/runner.hh"
#include "tools/cli.hh"

namespace {

using namespace archsim;
using cactid::tools::withStream;

constexpr const char *kTool = "cactid-study";

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
    std::uint64_t instr = 0; ///< 0: not given (a given value is >= 1)
    std::uint64_t epoch = 20000;
    std::string configs, workloads;
    std::string jsonPath, csvPath, summaryPath;
    std::string tracePath, registryPath, openMetricsPath;
    std::string telemetryPath;
    std::uint64_t telemetryIntervalMs = 0; ///< 0: not given
    bool latencyHistograms = false;
    std::string checkpointDir, faultPlanSpec;
    std::string cacheDir;
    std::uint64_t traceCapacity = 1 << 14;
    std::uint64_t maxCycles = 0;
    std::uint64_t maxWallMs = 0;
    int retry = 1;
    int cores = 0;
    int threadsPerCore = 0;
    std::string dirMode = "auto";
    std::uint64_t dirSets = 0;
    int dirAssoc = 8;
    int dirPointers = 4;
    bool retryTimeouts = false;
    bool resume = false;
    bool profile = false;
    bool noThermal = false;
    bool table3 = false;
    bool quiet = false;
};

cactid::tools::CommandLine
commandLine(CliArgs &a)
{
    std::vector<cactid::tools::Flag> flags = {
        {"--jobs", "N", "worker threads (0 = all cores; default 0)", &a.jobs},
        {"--instr", "N", "instructions per hardware thread (default: "
         "ARCHSIM_INSTR or 150000)", &a.instr, 1},
        {"--epoch", "N", "epoch sampling interval in CPU cycles (default "
         "20000; 0 disables sampling)", &a.epoch},
        {"--configs", "a,b", "subset of: nol3 sram lp_dram_ed lp_dram_c "
         "cm_dram_ed cm_dram_c", &a.configs},
        {"--workloads", "x,y", "subset of: bt.C cg.C ft.B is.C lu.C mg.B "
         "sp.C ua.C", &a.workloads},
        {"--json", "FILE", "write the sweep as JSON (- for stdout)",
         &a.jsonPath},
        {"--csv", "FILE", "write per-epoch metrics CSV (- for stdout)",
         &a.csvPath},
        {"--summary-csv", "FILE", "write per-run aggregate CSV (- for "
         "stdout)", &a.summaryPath},
        {"--no-thermal", nullptr, "skip stack-temperature solves",
         &a.noThermal},
        {"--table3", nullptr, "print the Table-3 projections first",
         &a.table3},
        {"--quiet", nullptr, "suppress the aggregate table", &a.quiet},
        {"--trace", "FILE", "write simulator events as Chrome trace JSON "
         "(- for stdout; simulated-cycle clock, byte-identical for any "
         "--jobs)", &a.tracePath},
        {"--trace-capacity", "N", "per-run event ring size (default 16384)",
         &a.traceCapacity, 1},
        {"--cache-dir", "DIR", "memoize the study's LLC solves in records "
         "under DIR, shared across runs; records from another build are "
         "rejected and re-solved (the sweep output is byte-identical "
         "either way)", &a.cacheDir},
        {"--registry", "FILE", "write per-run counters as cactid-obs-v1",
         &a.registryPath},
        {"--openmetrics", "FILE", "write per-run counters in the "
         "OpenMetrics text exposition (- for stdout; "
         "run=\"workload/config\" labels)", &a.openMetricsPath},
        {"--latency-histograms", nullptr, "record per-level access-latency "
         "and queueing distributions (sim.lat.* in the registry, "
         "percentiles in the JSON; byte-identical for any --jobs)",
         &a.latencyHistograms},
        {"--telemetry", "FILE", "append a live cactid-telemetry-v1 JSONL "
         "snapshot (atomically rewritten; wall-clock fields under "
         "per-record \"host\" objects, everything else deterministic)",
         &a.telemetryPath},
        {"--telemetry-interval", "MS", "heartbeat period in milliseconds "
         "(default 1000)", &a.telemetryIntervalMs, 1},
        {"--profile", nullptr, "wall-clock span summary on stderr",
         &a.profile},
        {"--checkpoint", "DIR", "persist each completed run atomically "
         "under DIR (incompatible with --trace)", &a.checkpointDir},
        {"--resume", nullptr, "with --checkpoint: reuse valid records, "
         "re-run missing/failed; merged output is byte-identical to an "
         "uninterrupted sweep", &a.resume},
        {"--max-cycles", "N", "per-run simulated-cycle budget; a run over "
         "budget lands as timed_out at a deterministic cycle (0 = "
         "unlimited)", &a.maxCycles},
        {"--max-wall-ms", "N", "per-run wall-clock budget in ms "
         "(machine-dependent; 0 = unlimited)", &a.maxWallMs},
        {"--retry", "N", "total attempts per failed run (default 1 = no "
         "retry)", &a.retry, 1},
        {"--retry-timeouts", nullptr, "also retry timed-out runs",
         &a.retryTimeouts},
        {"--cores", "N", "cores per simulated system (0 = the default of 8; "
         ">16 needs a directory: auto switches to the sparse directory with "
         "a warning)", &a.cores},
        {"--threads-per-core", "N", "hardware threads per core (0 = the "
         "default of 4)", &a.threadsPerCore},
        {"--dir-mode", "MODE", "sharer tracking: auto (default), broadcast, "
         "or sparse (limited-pointer directory)", &a.dirMode},
        {"--dir-sets", "N", "sparse-directory sets (power of two; 0 = "
         "auto-size to 2x the L2 lines)", &a.dirSets},
        {"--dir-assoc", "N", "sparse-directory ways per set (default 8)",
         &a.dirAssoc, 1},
        {"--dir-pointers", "N", "exact core pointers per entry (default 4)",
         &a.dirPointers, 1},
        {"--fault-plan", "SPEC", "inject deterministic faults (testing); "
         "SPEC = INDEX@SITE[:CYCLE][xN],... with SITE one of solve step "
         "timeout export", &a.faultPlanSpec},
    };
    return {kTool,
            "cactid-study - parallel LLC study sweep (paper section 4)\n\n"
            "usage: cactid-study [options]\n",
            std::move(flags),
            "\nexit codes: 0 all runs ok; 1 sweep completed with non-ok\n"
            "runs; 2 usage/configuration error; 3 internal error\n"};
}

/** The rules that join flags, checked after the walk. */
void
checkCombinations(const CliArgs &a)
{
    using E = std::invalid_argument;
    if (a.resume && a.checkpointDir.empty())
        throw E("--resume requires --checkpoint");
    if (!a.checkpointDir.empty() && !a.tracePath.empty())
        throw E("--checkpoint cannot be combined with --trace (event "
                "streams are not checkpointed)");
    if (!a.checkpointDir.empty() && a.latencyHistograms)
        throw E("--checkpoint cannot be combined with "
                "--latency-histograms (distributions are not "
                "checkpointed)");
    if (a.telemetryIntervalMs && a.telemetryPath.empty())
        throw E("--telemetry-interval requires --telemetry");
    if (a.dirMode != "auto" && a.dirMode != "broadcast" &&
        a.dirMode != "sparse")
        throw E("--dir-mode must be auto, broadcast or sparse (got " +
                a.dirMode + ")");
    if (a.dirSets != 0 && (a.dirSets & (a.dirSets - 1)) != 0)
        throw E("--dir-sets must be a power of two (got " +
                std::to_string(a.dirSets) + ")");
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
    CliArgs args;
    if (const std::optional<int> rc = cactid::tools::parseCommandLine(
            commandLine(args), argc, argv))
        return *rc;
    if (args.profile)
        cactid::obs::Tracer::instance().enable(true);

    return cactid::tools::runGuarded(kTool, [&] {
        checkCombinations(args);
        // The Study constructor runs the eight LLC solves as one
        // batch, so only records on disk can ever hit.
        const std::unique_ptr<cactid::SolveCache> cache =
            cactid::tools::openSolveCache(kTool, args.cacheDir);
        cactid::SolverOptions solver;
        solver.cache = cache.get();
        const Study study(solver);
        if (args.table3)
            study.printTable3(std::cout);

        RunnerOptions opts;
        opts.jobs = args.jobs;
        opts.instrPerThread = args.instr;
        opts.epochCycles = args.epoch;
        opts.thermal = !args.noThermal;
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
            if (args.telemetryIntervalMs)
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
            printAggregates(runs, !args.noThermal);

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
