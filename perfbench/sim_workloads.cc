/**
 * @file
 * The simulator workloads: study_sweep (the paper's section-4 sweep)
 * and manycore_sim (64-core runs through the sparse directory).
 *
 * Untraced, a pass is StudyRunner::runAll plus the study exports
 * written to memory, repeated until --seconds have passed.  Traced,
 * the run replays every (config, workload) pair from this file: each
 * pair once through StudyRunner::runOne (the parent span) and once as
 * a replica that calls the layers one by one — System construction,
 * System::run, computePower, deriveEpochMetrics, solveStudyStack —
 * each under its own span.  The replica must reproduce the runner's
 * results bit for bit.
 */

#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.hh"
#include "obs/numfmt.hh"
#include "obs/registry.hh"
#include "sim/obs.hh"
#include "sim/runner.hh"

namespace perfbench {

namespace {

using archsim::RunResult;
using archsim::Study;
using archsim::StudyRunner;
using cactid::obs::fmtDouble;

/**
 * Per-run completion stamps from RunnerOptions::onRunComplete.  Each
 * worker runs its tasks back to back, so a run's latency is the time
 * since its worker's previous completion (or the pass start).
 */
class Completions
{
  public:
    void
    start()
    {
        const std::lock_guard<std::mutex> lock(mtx_);
        stamps_.clear();
        start_ = now();
    }

    void
    record(std::size_t run)
    {
        const double t = now();
        const std::lock_guard<std::mutex> lock(mtx_);
        stamps_.push_back({std::this_thread::get_id(), run, t});
    }

    /** Per-run latencies (s), indexed by the run's enumeration slot. */
    std::vector<double>
    latencies() const
    {
        const std::lock_guard<std::mutex> lock(mtx_);
        std::unordered_map<std::thread::id, double> last;
        std::vector<double> out(stamps_.size());
        for (const Stamp &s : stamps_) {
            const auto it = last.find(s.worker);
            out.at(s.run) = s.at - (it == last.end() ? start_ : it->second);
            last[s.worker] = s.at;
        }
        return out;
    }

    /** Sum over workers of their last completion minus the start. */
    double
    busy() const
    {
        const std::lock_guard<std::mutex> lock(mtx_);
        std::unordered_map<std::thread::id, double> last;
        for (const Stamp &s : stamps_)
            last[s.worker] = s.at;
        double sum = 0.0;
        for (const auto &[worker, at] : last)
            sum += at - start_;
        return sum;
    }

  private:
    struct Stamp {
        std::thread::id worker;
        std::size_t run;
        double at;
    };
    mutable std::mutex mtx_;
    std::vector<Stamp> stamps_;
    double start_ = 0.0;
};

/** Every simulated output of one run, rendered exactly. */
std::string
renderRun(const RunResult &r)
{
    cactid::obs::Registry reg;
    archsim::registerSimStats(reg, r.stats);
    archsim::registerPowerBreakdown(reg, r.power);
    const archsim::SimStats &s = r.stats;
    std::ostringstream os;
    os << r.workload << '/' << r.config << ' '
       << archsim::runStatusName(r.status) << ' ' << s.workload << '/'
       << s.config << '\n';
    reg.writeJsonObject(os);
    os << "\nbreakdown";
    for (const double f :
         {s.fInstruction, s.fL2, s.fL3, s.fMemory, s.fBarrier, s.fLock})
        os << ' ' << fmtDouble(f);
    os << "\nthermal " << fmtDouble(r.thermal.maxTemp) << ' '
       << fmtDouble(r.thermal.maxTempTopDie) << ' '
       << fmtDouble(r.thermal.maxTempBottomDie) << '\n';
    for (const archsim::EpochSample &e : r.epochs) {
        os << e.index << ' ' << e.beginCycle << ' ' << e.endCycle << ' '
           << e.instructions << ' ' << e.l1Reads << ' ' << e.l1Writes
           << ' ' << e.l2Reads << ' ' << e.l2Writes << ' ' << e.l2Misses
           << ' ' << e.xbarTransfers << ' ' << e.llcReads << ' '
           << e.llcWrites << ' ' << e.llcHits << ' ' << e.llcMisses << ' '
           << e.dramActivates << ' ' << e.dramReads << ' '
           << e.dramWrites << ' ' << e.dramRowHits << ' '
           << e.dramBusBytes << ' ' << fmtDouble(e.poweredDownFraction)
           << ' ' << fmtDouble(e.ipc) << ' ' << fmtDouble(e.l2Mpki) << ' '
           << fmtDouble(e.l3Mpki) << ' ' << fmtDouble(e.dramBandwidthGBs)
           << ' ' << fmtDouble(e.memHierPowerW) << ' '
           << fmtDouble(e.stackTempK) << '\n';
    }
    return os.str();
}

/** The identities every run of a sweep must satisfy. */
void
checkRun(const RunResult &r, const archsim::RunnerOptions &o, Report &rep)
{
    const std::string id = r.workload + "/" + r.config;
    if (!rep.check(r.ok(), id + " ended " +
                               archsim::runStatusName(r.status) + ": " +
                               r.error.message))
        return;
    const archsim::SimStats &s = r.stats;
    rep.check(s.instructions > 0 && s.cycles > 0,
              id + ": no simulated progress");
    if (o.epochCycles > 0) {
        std::uint64_t instr = 0;
        archsim::Cycle end = 0;
        bool tiled = !r.epochs.empty();
        for (const archsim::EpochSample &e : r.epochs) {
            tiled = tiled && e.beginCycle == end;
            instr += e.instructions;
            end = e.endCycle;
        }
        rep.check(tiled && end == s.cycles,
                  id + ": epochs do not tile the run");
        rep.check(instr == s.instructions,
                  id + ": epoch instructions do not sum to the run's");
    }
    if (o.thermal) {
        const double ambient = o.thermalParams.ambient;
        bool hot = std::isfinite(r.thermal.maxTemp) &&
                   r.thermal.maxTemp > ambient;
        for (const archsim::EpochSample &e : r.epochs)
            hot = hot && std::isfinite(e.stackTempK) && e.stackTempK > ambient;
        rep.check(hot, id + ": stack temperature not above ambient");
    }
    rep.check(std::isfinite(r.power.system()) &&
                  r.power.memoryHierarchy() > 0,
              id + ": memory-hierarchy power not positive");
}

/** Check every run and digest the sweep's simulated outputs. */
std::string
verifySweep(const std::vector<RunResult> &runs,
            const archsim::RunnerOptions &o, Report &rep)
{
    Digest d;
    for (const RunResult &r : runs) {
        checkRun(r, o, rep);
        d.add(renderRun(r));
    }
    return d.hex();
}

/** The study exports, written to memory. */
struct Exports {
    std::string json, summary, epochs;
    std::size_t bytes() const
    {
        return json.size() + summary.size() + epochs.size();
    }
};

/** Export @p runs; with @p log, each export is a span. */
Exports
exportRuns(const std::vector<RunResult> &runs, const StudyRunner &runner,
           SpanLog *log)
{
    Exports x;
    auto timed = [log](const char *name, auto &&fn) {
        std::optional<SpanLog::Scope> span;
        if (log)
            span.emplace(*log, name, 0);
        fn();
    };
    timed("sim.export.json", [&] {
        std::ostringstream os;
        archsim::exportJson(os, runs, runner);
        x.json = os.str();
    });
    timed("sim.export.summary", [&] {
        std::ostringstream os;
        archsim::exportSummaryCsv(os, runs);
        x.summary = os.str();
    });
    timed("sim.export.epochs", [&] {
        std::ostringstream os;
        archsim::exportEpochsCsv(os, runs);
        x.epochs = os.str();
    });
    return x;
}

/**
 * Mean |ln(model/paper)| over the Table 3 cells where both are
 * non-zero, parsed from the "model|paper" text Study::printTable3
 * prints (so it sees exactly what a user reads).
 */
double
table3LogErr(const Study &study, std::size_t &cells)
{
    std::ostringstream table;
    study.printTable3(table);
    std::istringstream in(table.str());
    std::string tok;
    double sum = 0.0;
    cells = 0;
    while (in >> tok) {
        const std::size_t bar = tok.find('|');
        if (bar == std::string::npos)
            continue;
        const std::string ms = tok.substr(0, bar);
        const std::string ps = tok.substr(bar + 1);
        char *me = nullptr;
        char *pe = nullptr;
        const double model = std::strtod(ms.c_str(), &me);
        const double paper = std::strtod(ps.c_str(), &pe);
        if (ms.empty() || ps.empty() || *me != '\0' || *pe != '\0')
            continue;
        if (model > 0 && paper > 0) {
            sum += std::abs(std::log(model / paper));
            ++cells;
        }
    }
    return cells ? sum / double(cells) : 0.0;
}

/** Construct the Study kSetupReps times; returns the last one. */
std::unique_ptr<Study>
setUp(std::vector<double> &seconds, SpanLog *log)
{
    std::unique_ptr<Study> study;
    for (int i = 0; i < kSetupReps; ++i) {
        std::optional<SpanLog::Scope> span;
        if (log)
            span.emplace(*log, "study.construct", 0);
        const auto t0 = Clock::now();
        auto s = std::make_unique<Study>();
        seconds.push_back(secondsSince(t0));
        study = std::move(s);
    }
    return study;
}

double
table3(const Study &study, Report &rep)
{
    std::size_t cells = 0;
    const double err = table3LogErr(study, cells);
    rep.check(cells >= 40, "Table 3 parse found only " +
                               std::to_string(cells) + " model|paper cells");
    Report::note("table3_log_err " + fmtDouble(err) + " ln (mean |ln(model/"
                 "paper)| over " + std::to_string(cells) +
                 " non-zero Table 3 cells; simulator otherwise "
                 "unvalidated)");
    return err;
}

const archsim::WorkloadParams &
workloadByName(const StudyRunner &runner, const std::string &name)
{
    for (const archsim::WorkloadParams &w : runner.workloads()) {
        if (w.name == name)
            return w;
    }
    throw std::invalid_argument("no workload " + name);
}

/**
 * StudyRunner::execute rebuilt from the public layer calls, each
 * under a span whose parent is the replica's root span.
 */
RunResult
replicaRun(const Study &study, const StudyRunner &runner,
           const std::string &config, const archsim::WorkloadParams &w,
           SpanLog &log, std::uint64_t group)
{
    const archsim::RunnerOptions &o = runner.options();
    const SpanLog::Scope root(log, "replica.runOne", group);
    archsim::HierarchyParams hp = study.hierarchyFor(config);
    if (o.nCores > 0)
        hp.nCores = o.nCores;
    hp.dirMode = o.dirMode;
    hp.dir = o.dir;
    const int tpc = o.threadsPerCore > 0 ? o.threadsPerCore : 4;

    RunResult r;
    r.config = config;
    r.workload = w.name;
    std::optional<archsim::System> sys;
    {
        const SpanLog::Scope s(log, "sim.cpu.init", group, root.id());
        sys.emplace(hp, study.scaledWorkload(w), runner.instrPerThread(),
                    hp.nCores, tpc);
    }
    {
        const SpanLog::Scope s(log, "sim.cpu.run", group, root.id());
        if (o.epochCycles > 0) {
            archsim::EpochRecorder rec(o.epochCycles);
            r.stats = sys->run(&rec);
            r.epochs = rec.take();
        } else {
            r.stats = sys->run();
        }
    }
    r.stats.config = config;

    const archsim::PowerParams pp = study.powerFor(config);
    const double bank_standby = study.l3BankStandbyPower(config);
    std::vector<double> bank_w; // per-epoch LLC bank power, W
    {
        const SpanLog::Scope s(log, "sim.power", group, root.id());
        r.power = archsim::computePower(pp, r.stats);
        for (const archsim::EpochSample &e : r.epochs) {
            archsim::ActivityCounts a;
            a.cycles = e.cycles();
            a.l1Reads = e.l1Reads;
            a.l1Writes = e.l1Writes;
            a.l2Reads = e.l2Reads;
            a.l2Writes = e.l2Writes;
            a.xbarTransfers = e.xbarTransfers;
            a.llcReads = e.llcReads;
            a.llcWrites = e.llcWrites;
            a.dramActivates = e.dramActivates;
            a.dramReads = e.dramReads;
            a.dramWrites = e.dramWrites;
            a.dramBusBytes = e.dramBusBytes;
            a.poweredDownFraction = e.poweredDownFraction;
            bank_w.push_back(bank_standby +
                             archsim::computePower(pp, a).l3Dyn / 8.0);
        }
    }
    if (!r.epochs.empty()) {
        const SpanLog::Scope s(log, "sim.metrics.derive", group, root.id());
        archsim::EpochDeriveParams dp;
        dp.l3BankStandbyPowerW = bank_standby;
        dp.computeThermal = false; // replayed below, under its own span
        dp.thermal = o.thermalParams;
        archsim::deriveEpochMetrics(r.epochs, pp, dp);
    }
    if (o.thermal) {
        const SpanLog::Scope s(log, "sim.thermal", group, root.id());
        for (std::size_t i = 0; i < r.epochs.size(); ++i) {
            if (r.epochs[i].cycles() > 0) {
                r.epochs[i].stackTempK =
                    archsim::solveStudyStack(o.thermalParams, pp.corePowerW,
                                             bank_w[i])
                        .maxTemp;
            }
        }
        r.thermal = archsim::solveStudyStack(
            o.thermalParams, pp.corePowerW, bank_standby + r.power.l3Dyn / 8.0);
    }
    return r;
}

/** Simulated totals over a sweep (the sim/cache and sim/dram layer). */
void
simCounts(const std::vector<RunResult> &runs, Report &rep)
{
    double instr = 0, cycles = 0, l1 = 0, l2 = 0, l2m = 0, c2c = 0;
    double llc_hits = 0, llc_misses = 0, dir_ev = 0, dir_of = 0;
    double dram_reads = 0, dram_acc = 0, row_hits = 0, epochs = 0;
    for (const RunResult &r : runs) {
        const archsim::SimStats &s = r.stats;
        instr += double(s.instructions);
        cycles += double(s.cycles);
        l1 += double(s.hier.l1Reads + s.hier.l1Writes);
        l2 += double(s.hier.l2Reads + s.hier.l2Writes);
        l2m += double(s.hier.l2Misses);
        c2c += double(s.hier.c2cTransfers);
        llc_hits += double(s.llcHits);
        llc_misses += double(s.llcMisses);
        dir_ev += double(s.dirEvictions);
        dir_of += double(s.dirOverflows);
        dram_reads += double(s.dram.reads);
        dram_acc += double(s.dram.reads + s.dram.writes);
        row_hits += double(s.dram.rowHits);
        epochs += double(r.epochs.size());
    }
    rep.set("sim.cpu.instructions", instr);
    rep.set("sim.cpu.cycles", cycles);
    rep.set("sim.cache.l1_accesses", l1);
    rep.set("sim.cache.l2_accesses", l2);
    rep.set("sim.cache.l2_misses", l2m);
    rep.set("sim.cache.c2c_transfers", c2c);
    rep.set("sim.cache.llc_hit_ratio",
            llc_hits + llc_misses > 0 ? llc_hits / (llc_hits + llc_misses)
                                      : 0.0);
    rep.set("sim.dir.evictions", dir_ev);
    rep.set("sim.dir.overflows", dir_of);
    rep.set("sim.dram.reads", dram_reads);
    rep.set("sim.dram.row_hit_ratio",
            dram_acc > 0 ? row_hits / dram_acc : 0.0);
    rep.set("sim.metrics.epochs", epochs);
}

void
simEndToEnd(const Args &a, const archsim::RunnerOptions &base, Report &rep)
{
    std::vector<double> setups;
    const std::unique_ptr<Study> study = setUp(setups, nullptr);
    table3(*study, rep);

    Completions done;
    archsim::RunnerOptions opts = base;
    opts.onRunComplete = [&done](std::size_t run, const RunResult &) {
        done.record(run);
    };
    const StudyRunner runner(*study, opts);

    std::vector<double> walls, cpus;
    std::vector<std::vector<double>> latencies; // [pass][run]
    double instructions = 0.0; // per pass: every pass simulates the same
    std::string first_digest;
    const auto t_measure = Clock::now();
    do {
        checkTracerOff(rep);
        done.start();
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        const std::vector<RunResult> runs = runner.runAll();
        const Exports x = exportRuns(runs, runner, nullptr);
        walls.push_back(secondsSince(t0));
        cpus.push_back(processCpuSeconds() - cpu0);

        latencies.push_back(done.latencies());
        rep.attempt(runs.size());
        rep.check(x.bytes() > 0, "empty study exports");
        instructions = 0.0;
        for (const RunResult &r : runs)
            instructions += double(r.stats.instructions);
        const std::string digest = verifySweep(runs, opts, rep);
        if (first_digest.empty()) {
            first_digest = digest;
            Report::note("digest sim-stats " + digest + " over " +
                         std::to_string(runs.size()) + " runs");
        }
        rep.check(digest == first_digest,
                  "sweep pass " + std::to_string(walls.size()) +
                      " differs from the first (digest " + digest + ")");
    } while (secondsSince(t_measure) < a.seconds);

    const double minstr_per_s = instructions / 1e6 / median(walls);
    Report::note("sim_minstr_per_s " + fmtDouble(minstr_per_s) +
                 " Minstr/s (" + fmtDouble(instructions) +
                 " simulated instructions per pass, median of " +
                 std::to_string(walls.size()) + " passes)");
    Report::note("run latency (op_p50_ms / op_p99_ms) over " +
                 std::to_string(latencies.front().size()) +
                 " runs, each the median of its " +
                 std::to_string(latencies.size()) + " passes");
    rep.set("setup_s", median(setups));
    rep.set("wall_s", median(walls));
    rep.set("cpu_s", median(cpus));
    rep.set("peak_rss_mb", peakRssMb());
    rep.set("work_rate", minstr_per_s);
    rep.set("op_p50_ms", opQuantile(latencies, 0.50) * 1e3);
    rep.set("op_p99_ms", opQuantile(latencies, 0.99) * 1e3);
}

void
simTraced(const archsim::RunnerOptions &base, Report &rep, SpanLog &log)
{
    std::vector<double> setups;
    const std::unique_ptr<Study> study = setUp(setups, &log);
    rep.set("study.setup_s", median(setups));
    rep.set("study.table3_log_err", table3(*study, rep));

    Completions done;
    archsim::RunnerOptions opts = base;
    opts.onRunComplete = [&done](std::size_t run, const RunResult &) {
        done.record(run);
    };
    const StudyRunner runner(*study, opts);
    const std::vector<std::pair<std::string, std::string>> tasks =
        runner.tasks();
    const std::size_t n = tasks.size();
    const int jobs = static_cast<int>(std::min<std::size_t>(
        StudyRunner::resolveJobs(opts.jobs), n));

    // Phase A: the untraced sweep, for the runner's busy/tail split
    // and as the reference the replicas must reproduce.
    done.start();
    const auto t_a = Clock::now();
    const std::vector<RunResult> runs = runner.runAll();
    const double wall_a = secondsSince(t_a);
    const double busy = done.busy();
    rep.attempt(n);
    Report::note("digest sim-stats " + verifySweep(runs, opts, rep) +
                 " over " + std::to_string(n) + " runs");

    // Phase B: StudyRunner::runOne per pair, the parent spans.
    // Phase C: the layer-by-layer replica of each pair.
    std::vector<SpanLog> logs;
    for (int w = 0; w < jobs; ++w)
        logs.emplace_back(w + 1);
    std::vector<RunResult> via_run_one(n), replicas(n);
    parallelFor(n, jobs, [&](std::size_t i, int w) {
        const SpanLog::Scope s(logs[w], "runner.runOne", i + 1);
        via_run_one[i] = runner.runOne(tasks[i].first, tasks[i].second);
    });
    const auto t_c = Clock::now();
    parallelFor(n, jobs, [&](std::size_t i, int w) {
        replicas[i] =
            replicaRun(*study, runner, tasks[i].first,
                       workloadByName(runner, tasks[i].second), logs[w], i + 1);
    });
    const double wall_c = secondsSince(t_c);
    for (const SpanLog &l : logs)
        log.merge(l);
    rep.attempt(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::string id = tasks[i].second + "/" + tasks[i].first;
        const std::string want = renderRun(runs[i]);
        rep.check(renderRun(via_run_one[i]) == want,
                  id + ": StudyRunner::runOne differs from runAll");
        rep.check(renderRun(replicas[i]) == want,
                  id + ": the layer replica differs from the runner");
    }

    const Exports x = exportRuns(runs, runner, &log);
    rep.check(exportRuns(replicas, runner, nullptr).json == x.json,
              "exports of the replicas differ from the runner's");

    // --- runner
    const double tail = wall_a - busy / jobs;
    rep.set("runner.busy_s", busy);
    rep.set("runner.tail_s", tail);
    rep.set("runner.parallel_eff", busy / (jobs * wall_a));
    const double run_one = log.total("runner.runOne");
    const double children = log.childTotal("replica.runOne");
    const double coverage = run_one > 0 ? children / run_one : 0.0;
    rep.set("runner.coverage", coverage);
    Report::note("runner: sweep wall " + fmtDouble(wall_a) + " s on " +
                 std::to_string(jobs) + " workers, busy " + fmtDouble(busy) +
                 " s, tail " + fmtDouble(tail) + " s");
    Report::note("runner.coverage " + fmtDouble(coverage) +
                 " = replica layer spans " + fmtDouble(children) +
                 " s / StudyRunner::runOne " + fmtDouble(run_one) +
                 " s over " + std::to_string(n) + " runs" +
                 (coverage < 0.95 ? "  [below the 0.95 target]" : ""));

    // --- sim layers
    simCounts(runs, rep);
    const double run_s = log.total("sim.cpu.run");
    double instructions = 0, thermal_solves = 0;
    for (const RunResult &r : runs) {
        instructions += double(r.stats.instructions);
        if (opts.thermal) {
            thermal_solves += 1.0;
            for (const archsim::EpochSample &e : r.epochs)
                thermal_solves += e.cycles() > 0 ? 1.0 : 0.0;
        }
    }
    const double thermal_s = log.total("sim.thermal");
    rep.set("sim.cpu.init_s", log.total("sim.cpu.init"));
    rep.set("sim.cpu.run_s", run_s);
    rep.set("sim.cpu.ns_per_instr", run_s * 1e9 / instructions);
    rep.set("sim.power_s", log.total("sim.power"));
    rep.set("sim.metrics.derive_s", log.total("sim.metrics.derive"));
    rep.set("sim.thermal_s", thermal_s);
    rep.set("sim.thermal.solves", thermal_solves);
    rep.set("sim.thermal.us_per_solve",
            thermal_solves > 0 ? thermal_s * 1e6 / thermal_solves : 0.0);
    rep.set("sim.export_s", log.total("sim.export.json") +
                                log.total("sim.export.summary") +
                                log.total("sim.export.epochs"));
    rep.set("sim.export_bytes", double(x.bytes()));

    const double overhead = wall_c / wall_a;
    rep.set("trace.overhead", overhead);
    Report::note("trace.overhead " + fmtDouble(overhead) +
                 " = traced replica pass " + fmtDouble(wall_c) +
                 " s / untraced runAll pass " + fmtDouble(wall_a) + " s");
}

void
runSim(const Args &a, const archsim::RunnerOptions &opts, Report &rep,
       SpanLog &log)
{
    if (a.trace)
        simTraced(opts, rep, log);
    else
        simEndToEnd(a, opts, rep);
}

} // namespace

void
studySweep(const Args &a, Report &r, SpanLog &log)
{
    // The paper sweep with the tool defaults: 6 configs x 8 NPB
    // workloads, 8 cores x 4 threads, 20000-cycle epochs, per-epoch and
    // per-run thermal solves.  The inputs are the paper's; the seed
    // does not change them.
    archsim::RunnerOptions opts;
    opts.jobs = a.cpus;
    opts.epochCycles = 20000;
    opts.thermal = true;
    runSim(a, opts, r, log);
}

void
manycoreSim(const Args &a, Report &r, SpanLog &log)
{
    // 64 cores x 2 threads: DirectoryMode::Auto selects the sparse
    // directory.  One run at a time, so only in-run speed-ups show.
    // A third of the study's instruction budget keeps a pass near 2 s,
    // so a run measures several passes and reports their median.
    archsim::RunnerOptions opts;
    opts.jobs = 1;
    opts.instrPerThread = 50000;
    opts.configs = {"cm_dram_ed"};
    opts.workloads = {"cg.C", "mg.B"};
    opts.nCores = 64;
    opts.threadsPerCore = 2;
    opts.dirMode = archsim::DirectoryMode::Auto;
    opts.epochCycles = 0;
    opts.thermal = true;
    runSim(a, opts, r, log);
}

} // namespace perfbench
