/**
 * @file
 * Simulator hot-path benchmark with golden byte-identity gates.
 *
 * Runs the pinned two-configuration (nol3, cm_dram_ed) x two-workload
 * (mg.B, cg.C) sweep that bench/golden/ was generated from on the
 * pre-optimization simulator, asserts that the "cactid-study-v1" JSON,
 * the summary CSV and the "cactid-trace-v1" export are byte-identical
 * to those goldens for both serial and jobs=8 runs (the build-info
 * line carries the git describe of the producing commit, so it is the
 * one line excluded from the comparison), then times the sweep with
 * tracing off and reports simulated-cycles per wall-second into
 * BENCH_sim_hotpath.json.
 *
 * Usage: bench_sim_hotpath [--golden-dir DIR] [--out FILE] [--reps N]
 *        (defaults: bench/golden, BENCH_sim_hotpath.json, 3; --reps
 *        sets the throughput and stall-heavy reps, while the many-core
 *        2x gate always takes the min of 7 alternating reps per side)
 * Exit status is 1 when any identity check or the many-core 2x gate
 * fails; each failure prints its own line on stderr.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/build_info.hh"
#include "obs/numfmt.hh"
#include "sim/cpu/system.hh"
#include "sim/runner.hh"

namespace {

using namespace archsim;

/** The sweep bench/golden/ is pinned to.  Do not change without
 * regenerating the goldens from a build of the same commit. */
RunnerOptions
pinnedOptions()
{
    RunnerOptions opts;
    opts.instrPerThread = 20000;
    opts.epochCycles = 20000;
    opts.thermal = false;
    opts.configs = {"nol3", "cm_dram_ed"};
    opts.workloads = {"mg.B", "cg.C"};
    return opts;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream os;
    os << is.rdbuf();
    out = os.str();
    return true;
}

/**
 * Drop lines carrying the build stamp ("build": {...} holds the git
 * describe / compiler of the producing binary and legitimately differs
 * across commits; every simulated byte is on the other lines).
 */
std::string
stripBuildLines(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t end = s.find('\n', pos);
        if (end == std::string::npos)
            end = s.size();
        else
            ++end;
        const std::string_view line(&s[pos], end - pos);
        if (line.find("\"build\"") == std::string_view::npos)
            out.append(line);
        pos = end;
    }
    return out;
}

struct Exports {
    std::string json, csv, trace;
};

Exports
runIdentitySweep(const Study &study, int jobs)
{
    RunnerOptions opts = pinnedOptions();
    opts.jobs = jobs;
    opts.trace = true;
    opts.traceCapacity = 2048; // matches the committed golden trace
    const StudyRunner runner(study, opts);
    const std::vector<RunResult> runs = runner.runAll();

    Exports e;
    std::ostringstream js, cs, tr;
    exportJson(js, runs, runner);
    exportSummaryCsv(cs, runs);
    exportTraceJson(tr, runs);
    e.json = js.str();
    e.csv = cs.str();
    e.trace = tr.str();
    return e;
}

bool
checkIdentity(const char *what, const std::string &got,
              const std::string &golden, bool filter_build)
{
    const std::string a = filter_build ? stripBuildLines(got) : got;
    const std::string b = filter_build ? stripBuildLines(golden) : golden;
    const bool same = a == b;
    std::printf("  %-28s %s\n", what, same ? "IDENTICAL" : "DIFFERS");
    return same;
}

// --- Stall-heavy scheduler stressor ---------------------------------
//
// 256 cores x 4 threads serialized on one global lock: at any cycle a
// handful of threads can issue while hundreds are blocked, which is
// the regime the ready-queue scheduler exists for.  Pure compute
// (memFrac = 0) keeps the per-issue work O(1) in the core count, so
// the measurement isolates the loop itself rather than the snoop
// broadcast.  The reference loop still scans all 256 cores every
// cycle.

constexpr int kStallCores = 256;
constexpr int kStallThreadsPerCore = 4;
constexpr std::uint64_t kStallInstr = 2000;

System
makeStallHeavy()
{
    HierarchyParams hp;
    hp.nCores = kStallCores;
    hp.llc.reset();
    // Pure compute: no coherence traffic, so sharer tracking is dead
    // weight.  Explicit broadcast keeps this a scheduler measurement
    // (and skips allocating a 256-core directory that is never used).
    hp.dirMode = DirectoryMode::Broadcast;
    WorkloadParams w;
    w.name = "lockserial";
    w.memFrac = 0.0;
    w.fpFrac = 0.5;
    w.barrierEvery = 0;
    w.lockRate = 0.05;
    w.criticalSection = 50;
    return System(hp, w, kStallInstr, kStallCores,
                  kStallThreadsPerCore);
}

struct StallRun {
    SimStats stats;
    double secs = 0;
};

StallRun
timeStallHeavy(bool event_driven, int reps)
{
    StallRun r;
    r.secs = 1e300;
    for (int i = 0; i < reps; ++i) {
        System sys = makeStallHeavy();
        const auto start = std::chrono::steady_clock::now();
        r.stats = event_driven ? sys.run() : sys.runReference();
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (secs < r.secs)
            r.secs = secs;
    }
    return r;
}

bool
sameAggregates(const SimStats &a, const SimStats &b)
{
    return a.cycles == b.cycles && a.instructions == b.instructions &&
           a.avgReadLatency == b.avgReadLatency &&
           a.fInstruction == b.fInstruction && a.fLock == b.fLock &&
           a.fBarrier == b.fBarrier &&
           a.hier.l1Reads == b.hier.l1Reads &&
           a.hier.l2Misses == b.hier.l2Misses &&
           a.dram.reads == b.dram.reads;
}

// --- Many-core snoop stressor: sparse directory vs broadcast ---------
//
// 32 cores on a fully shared, L2-resident working set: writes upgrade
// and invalidate, the displaced readers re-fetch cache-to-cache, so
// nearly every transaction snoops.  Broadcast probes all 31 remote L2s
// per transaction; the sparse directory probes only the tracked
// sharers.  The simulated machine is identical (probing a non-holder
// costs no simulated cycles), so the aggregates must match exactly —
// only the wall-clock throughput may differ, and that gap is the whole
// point of the directory.

constexpr int kManyCores = 32;
constexpr int kManyThreadsPerCore = 2;
constexpr std::uint64_t kManyInstr = 4000;

System
makeManyCore(DirectoryMode mode)
{
    HierarchyParams hp;
    hp.nCores = kManyCores;
    hp.llc.reset();
    hp.dirMode = mode;
    WorkloadParams w;
    w.name = "sharestorm";
    w.memFrac = 0.5;
    w.hotFrac = 0.0;
    w.streamFrac = 0.0;
    w.alpha = 1.0;
    w.wsBytes = 512 << 10; // resident in every 1MB private L2
    w.sharedFrac = 1.0;
    w.barrierEvery = 0;
    return System(hp, w, kManyInstr, kManyCores, kManyThreadsPerCore);
}

// Reps per side for the 2x gate, whatever --reps says: one rep per side
// let a noisy host fail the gate now and then.
constexpr int kManyReps = 7;

// Simulations per timed rep, so that the sparse side runs for at
// least 0.5 s and host noise sits well inside the 2x margin.  One
// longer run cannot do it: past about 5000 instructions per thread the
// directory starts evicting, and each eviction invalidates sharers
// that broadcast leaves alone, so the two machines' aggregates part.
constexpr int kManyRunsPerRep = 12;

struct ManyCoreRuns {
    StallRun sparse, broadcast;
};

/** Min-of-kManyReps time per directory mode for kManyRunsPerRep runs;
 * the modes alternate so that host noise falls on both sides alike. */
ManyCoreRuns
timeManyCore()
{
    ManyCoreRuns m;
    m.sparse.secs = m.broadcast.secs = 1e300;
    for (int i = 0; i < kManyReps; ++i) {
        for (const DirectoryMode mode :
             {DirectoryMode::Sparse, DirectoryMode::Broadcast}) {
            StallRun &r =
                mode == DirectoryMode::Sparse ? m.sparse : m.broadcast;
            double secs = 0;
            for (int k = 0; k < kManyRunsPerRep; ++k) {
                System sys = makeManyCore(mode);
                const auto start = std::chrono::steady_clock::now();
                r.stats = sys.run();
                secs += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
            }
            if (secs < r.secs)
                r.secs = secs;
        }
    }
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string golden_dir = "bench/golden";
    std::string out_path = "BENCH_sim_hotpath.json";
    int reps = 3;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--golden-dir") && i + 1 < argc)
            golden_dir = argv[++i];
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
        else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc)
            reps = std::atoi(argv[++i]);
        else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }

    std::printf("=== simulator hot path (%s) ===\n",
                cactid::obs::versionLine("bench_sim_hotpath").c_str());

    std::string g_json, g_csv, g_trace;
    if (!readFile(golden_dir + "/sim_hotpath.json", g_json) ||
        !readFile(golden_dir + "/sim_hotpath_summary.csv", g_csv) ||
        !readFile(golden_dir + "/sim_hotpath_trace.json", g_trace)) {
        std::fprintf(stderr,
                     "cannot read goldens under %s (run from the repo "
                     "root, or pass --golden-dir)\n",
                     golden_dir.c_str());
        return 2;
    }

    const Study study;

    // --- Identity gates: serial and jobs=8 against the goldens. ---
    bool identical = true;
    std::printf("identity vs %s (jobs=1):\n", golden_dir.c_str());
    const Exports serial = runIdentitySweep(study, 1);
    identical &= checkIdentity("study JSON", serial.json, g_json, true);
    identical &= checkIdentity("summary CSV", serial.csv, g_csv, false);
    identical &= checkIdentity("trace JSON", serial.trace, g_trace, true);

    std::printf("identity vs %s (jobs=8):\n", golden_dir.c_str());
    const Exports par = runIdentitySweep(study, 8);
    identical &= checkIdentity("study JSON", par.json, g_json, true);
    identical &= checkIdentity("summary CSV", par.csv, g_csv, false);
    identical &= checkIdentity("trace JSON", par.trace, g_trace, true);
    identical &= checkIdentity("jobs=8 == jobs=1 (exact)",
                               par.json + par.csv + par.trace,
                               serial.json + serial.csv + serial.trace,
                               false);

    // --- Throughput: tracing off, serial, min over reps. ---
    RunnerOptions topts = pinnedOptions();
    topts.jobs = 1;
    const StudyRunner timed(study, topts);
    (void)timed.runAll(); // warm-up
    double best = 1e300;
    std::uint64_t sim_cycles = 0;
    for (int r = 0; r < reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        const std::vector<RunResult> runs = timed.runAll();
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (secs < best)
            best = secs;
        sim_cycles = 0;
        for (const RunResult &run : runs)
            sim_cycles += run.stats.cycles;
    }
    const double cps = best > 0 ? double(sim_cycles) / best : 0.0;
    std::printf("throughput: %llu simulated cycles in %.3f s "
                "(min of %d) = %.3e cycles/s\n",
                static_cast<unsigned long long>(sim_cycles), best, reps,
                cps);

    // --- 32-core study capture: byte-identity on the sparse path. ---
    // One pinned 32-core configuration against its golden capture:
    // the sparse directory's simulated behaviour is frozen the same
    // way the <=16-core goldens freeze broadcast snooping's.
    bool ok32 = true;
    {
        std::string g32_json, g32_csv;
        if (!readFile(golden_dir + "/sim_hotpath_32core.json",
                      g32_json) ||
            !readFile(golden_dir + "/sim_hotpath_32core_summary.csv",
                      g32_csv)) {
            std::fprintf(stderr,
                         "cannot read 32-core goldens under %s\n",
                         golden_dir.c_str());
            return 2;
        }
        RunnerOptions o32;
        o32.instrPerThread = 5000;
        o32.epochCycles = 5000;
        o32.thermal = false;
        o32.configs = {"nol3"};
        o32.workloads = {"cg.C"};
        o32.nCores = 32;
        o32.dirMode = DirectoryMode::Sparse;
        o32.jobs = 1;
        const StudyRunner r32(study, o32);
        const std::vector<RunResult> runs32 = r32.runAll();
        std::ostringstream js32, cs32;
        exportJson(js32, runs32, r32);
        exportSummaryCsv(cs32, runs32);
        std::printf("identity vs %s (32-core sparse):\n",
                    golden_dir.c_str());
        ok32 &= checkIdentity("study JSON", js32.str(), g32_json, true);
        ok32 &= checkIdentity("summary CSV", cs32.str(), g32_csv, false);
        identical &= ok32;
    }

    // --- Stall-heavy: event-driven loop vs reference scan. ---
    const StallRun ev = timeStallHeavy(true, reps);
    const StallRun ref = timeStallHeavy(false, reps);
    const bool stall_same = sameAggregates(ev.stats, ref.stats);
    const double ev_cps =
        ev.secs > 0 ? double(ev.stats.cycles) / ev.secs : 0.0;
    const double ref_cps =
        ref.secs > 0 ? double(ref.stats.cycles) / ref.secs : 0.0;
    const double speedup = ref_cps > 0 ? ev_cps / ref_cps : 0.0;
    std::printf("stall-heavy (%d cores x %d threads, lock-serialized):\n"
                "  event loop    %.3e cycles/s (%.3f s)\n"
                "  reference     %.3e cycles/s (%.3f s)\n"
                "  speedup       %.2fx   aggregates %s\n",
                kStallCores, kStallThreadsPerCore, ev_cps, ev.secs,
                ref_cps, ref.secs, speedup,
                stall_same ? "IDENTICAL" : "DIFFER");

    // --- Many-core: sparse directory vs broadcast fallback. ---
    const auto [sd, bc] = timeManyCore();
    const bool many_same = sameAggregates(sd.stats, bc.stats);
    const double many_cycles = double(sd.stats.cycles) * kManyRunsPerRep;
    const double sd_cps = sd.secs > 0 ? many_cycles / sd.secs : 0.0;
    const double bc_cps = bc.secs > 0 ? many_cycles / bc.secs : 0.0;
    const double dir_speedup = bc_cps > 0 ? sd_cps / bc_cps : 0.0;
    const bool dir_fast_enough = dir_speedup >= 2.0;
    std::printf("many-core (%d cores x %d threads, shared writes, %d "
                "runs per rep):\n"
                "  sparse dir    %.3e cycles/s (%.3f s)\n"
                "  broadcast     %.3e cycles/s (%.3f s)\n"
                "  speedup       %.2fx (gate: >= 2x %s, min of %d)   "
                "aggregates %s\n",
                kManyCores, kManyThreadsPerCore, kManyRunsPerRep, sd_cps,
                sd.secs, bc_cps, bc.secs, dir_speedup,
                dir_fast_enough ? "PASS" : "FAIL", kManyReps,
                many_same ? "IDENTICAL" : "DIFFER");

    using cactid::obs::fmtDouble;
    using cactid::obs::jsonEscape;
    std::ofstream os(out_path, std::ios::binary);
    os << "{\n"
       << "  \"schema\": \"cactid-bench-v1\",\n"
       << "  \"bench\": \"sim_hotpath\",\n"
       << "  \"build\": \""
       << jsonEscape(cactid::obs::buildInfo().gitDescribe) << "\",\n"
       << "  \"configs\": [\"nol3\", \"cm_dram_ed\"],\n"
       << "  \"workloads\": [\"mg.B\", \"cg.C\"],\n"
       << "  \"instr_per_thread\": 20000,\n"
       << "  \"golden_identical\": "
       << (identical ? "true" : "false") << ",\n"
       << "  \"sim_cycles\": " << sim_cycles << ",\n"
       << "  \"wall_s\": " << fmtDouble(best) << ",\n"
       << "  \"sim_cycles_per_sec\": " << fmtDouble(cps) << ",\n"
       << "  \"stall_heavy\": {\n"
       << "    \"cores\": " << kStallCores << ",\n"
       << "    \"threads_per_core\": " << kStallThreadsPerCore << ",\n"
       << "    \"instr_per_thread\": " << kStallInstr << ",\n"
       << "    \"sim_cycles\": " << ev.stats.cycles << ",\n"
       << "    \"aggregates_identical\": "
       << (stall_same ? "true" : "false") << ",\n"
       << "    \"event_cycles_per_sec\": " << fmtDouble(ev_cps)
       << ",\n"
       << "    \"reference_cycles_per_sec\": " << fmtDouble(ref_cps)
       << ",\n"
       << "    \"speedup\": " << fmtDouble(speedup) << "\n"
       << "  },\n"
       << "  \"manycore_32\": {\n"
       << "    \"cores\": " << kManyCores << ",\n"
       << "    \"threads_per_core\": " << kManyThreadsPerCore << ",\n"
       << "    \"instr_per_thread\": " << kManyInstr << ",\n"
       << "    \"sim_cycles\": " << sd.stats.cycles << ",\n"
       << "    \"golden_identical\": " << (ok32 ? "true" : "false")
       << ",\n"
       << "    \"aggregates_identical\": "
       << (many_same ? "true" : "false") << ",\n"
       << "    \"dir_evictions\": " << sd.stats.dirEvictions << ",\n"
       << "    \"dir_overflows\": " << sd.stats.dirOverflows << ",\n"
       << "    \"sparse_cycles_per_sec\": " << fmtDouble(sd_cps)
       << ",\n"
       << "    \"broadcast_cycles_per_sec\": " << fmtDouble(bc_cps)
       << ",\n"
       << "    \"speedup\": " << fmtDouble(dir_speedup) << ",\n"
       << "    \"speedup_gate_2x\": "
       << (dir_fast_enough ? "true" : "false") << ",\n"
       << "    \"runs_per_rep\": " << kManyRunsPerRep << ",\n"
       << "    \"reps\": " << kManyReps << "\n"
       << "  },\n"
       << "  \"reps\": " << reps << "\n"
       << "}\n";
    std::printf("wrote %s\n", out_path.c_str());

    // Identity and speed are separate verdicts: a slow host must not
    // read as changed outputs.
    if (!identical)
        std::fprintf(stderr,
                     "bench_sim_hotpath: outputs are NOT byte-identical "
                     "to the pinned goldens\n");
    if (!stall_same)
        std::fprintf(stderr,
                     "bench_sim_hotpath: the event loop's stall-heavy "
                     "aggregates differ from the reference loop's\n");
    if (!many_same)
        std::fprintf(stderr,
                     "bench_sim_hotpath: the sparse directory's "
                     "many-core aggregates differ from broadcast's\n");
    if (!dir_fast_enough)
        std::fprintf(stderr,
                     "bench_sim_hotpath: many-core speedup %.2fx is "
                     "below the 2x gate (min of %d reps per side)\n",
                     dir_speedup, kManyReps);
    return identical && stall_same && many_same && dir_fast_enough ? 0
                                                                   : 1;
}
