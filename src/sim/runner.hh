/**
 * @file
 * StudyRunner: the parallel, observable front door of the section-4
 * LLC study.
 *
 * The runner fans the (configuration x workload) simulations of a
 * Study across a worker pool, the same `jobs` pattern the CACTI-D
 * SolverEngine uses on the solve path.  Every simulation is an
 * independent, single-threaded, deterministically seeded System run
 * (thread seeds derive from the hardware-thread index only), and
 * results land in slots indexed by enumeration order — so a sweep
 * with jobs=N is bit-identical to jobs=1, including the per-epoch
 * metric streams.
 *
 * The runner is the single entry point used by the figure benches,
 * the ablations (through the tweak hooks) and the `cactid-study`
 * tool; exportJson / exportEpochsCsv / exportSummaryCsv serialize a
 * sweep with round-trip-exact doubles so equal results produce equal
 * bytes.
 */

#ifndef ARCHSIM_RUNNER_HH
#define ARCHSIM_RUNNER_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/latency.hh"
#include "sim/metrics.hh"
#include "sim/power/power.hh"
#include "sim/resilience.hh"
#include "sim/study.hh"
#include "sim/thermal/thermal.hh"

namespace archsim {

/**
 * Live sweep heartbeat (sim/telemetry.hh).  An empty path disables
 * telemetry entirely; with a path, the runner appends a JSONL
 * snapshot ("cactid-telemetry-v1") to it — atomically rewritten, so
 * a reader never sees a torn record.  Every simulated-domain field
 * in the stream is byte-identical for any `jobs`; wall-clock and
 * scheduling-dependent fields live under each record's "host" object.
 */
struct TelemetryOptions {
    std::string path;

    /** Heartbeat period in wall milliseconds (minimum 1). */
    std::uint64_t intervalMs = 1000;

    /**
     * Called (once) when a snapshot write fails, with the error
     * message, from whichever thread hit it.  Telemetry stops
     * writing after the first failure; the sweep itself continues.
     */
    std::function<void(const std::string &)> onError;
};

/** Knobs controlling how a sweep executes (not what it simulates). */
struct RunnerOptions {
    /**
     * Worker threads across simulations; 0 means
     * std::thread::hardware_concurrency(), 1 runs fully serial.
     */
    int jobs = 0;

    /** Instruction budget per hardware thread; 0 = the study default. */
    std::uint64_t instrPerThread = 0;

    /**
     * Cores per simulated system; 0 = the study default (8).  Values
     * past kAutoBroadcastCores (16) end broadcast snooping: pick a
     * DirectoryMode, or Auto will switch to the sparse directory with
     * a warning.
     */
    int nCores = 0;

    /** Hardware threads per core; 0 = the default (4). */
    int threadsPerCore = 0;

    /** Sharer tracking (sim/cache/sparsedir.hh); Auto = default. */
    DirectoryMode dirMode = DirectoryMode::Auto;

    /** Sparse-directory geometry (used when the sparse path is on). */
    SparseDirParams dir;

    /** Epoch sampling interval in CPU cycles; 0 disables sampling. */
    Cycle epochCycles = 0;

    /** Solve the stack temperature (per run and per epoch). */
    bool thermal = true;
    ThermalParams thermalParams;

    /**
     * Record simulator events (memory requests, MESI transitions,
     * DRAM commands, sync stalls) into a per-run ring buffer with
     * simulated-cycle timestamps.  Each run is single-threaded and
     * deterministic, so the recorded stream is independent of `jobs`.
     */
    bool trace = false;

    /** Per-run ring capacity in events; oldest events are dropped. */
    std::size_t traceCapacity = 1 << 14;

    /**
     * Record per-level access-latency and queueing-delay histograms
     * (sim/latency.hh) for every run.  Like the trace, simulated-cycle
     * observations from a single-threaded run: byte-identical for any
     * `jobs`, and absent (so the goldens are untouched) when off.
     */
    bool latencyHistograms = false;

    /** Live sweep heartbeat; off unless telemetry.path is set. */
    TelemetryOptions telemetry;

    /** Subset of configurations to run; empty = all six. */
    std::vector<std::string> configs;

    /** Subset of workloads (by name); empty = all eight. */
    std::vector<std::string> workloads;

    /**
     * Per-run simulated-cycle budget; 0 = unlimited.  A run past the
     * budget lands in its slot as RunStatus::TimedOut at a
     * deterministic cycle (the same for any `jobs`), and the sweep
     * continues.
     */
    Cycle maxCycles = 0;

    /**
     * Per-run wall-clock budget in milliseconds; 0 = unlimited.
     * Machine-dependent by nature — a damage bound for wedged runs,
     * not a reproducible observable.
     */
    std::uint64_t maxWallMs = 0;

    /** Opt-in bounded retry of failed runs (attempts are recorded). */
    RetryPolicy retry;

    /** Deterministic fault injection (tests and resilience benches). */
    FaultPlan faultPlan;

    /**
     * Called after each run completes (reused runs excluded), from
     * the worker that ran it — the callback must be thread-safe when
     * jobs > 1.  The sweep's checkpoint writer hangs off this hook.
     */
    std::function<void(std::size_t index, const RunResult &)>
        onRunComplete;

    /**
     * Resume hook: return true to place a previously persisted result
     * into slot @p index instead of executing it (--resume).  Called
     * before each run, from the worker thread.
     */
    std::function<bool(std::size_t index, const std::string &config,
                       const std::string &workload, RunResult &out)>
        reuseRun;

    /** Ablation hook: adjust the hierarchy of a configuration. */
    std::function<void(const std::string &config, HierarchyParams &)>
        tweakHierarchy;

    /** Ablation hook: adjust the power model of a configuration. */
    std::function<void(const std::string &config, PowerParams &)>
        tweakPower;
};

/** Everything one (config, workload) simulation produced. */
struct RunResult {
    std::string config;
    std::string workload;

    /**
     * How the run ended.  Non-Ok runs carry `error` and zeroed
     * stats/power/thermal; the sweep around them is unaffected.
     */
    RunStatus status = RunStatus::Ok;
    RunError error;
    int attempts = 1; ///< executions including retries

    SimStats stats;
    PowerBreakdown power;
    ThermalResult thermal;
    std::vector<EpochSample> epochs;

    /** Event stream (simulated-cycle clock) when tracing was on. */
    std::vector<obs::TraceEvent> trace;
    std::size_t traceDropped = 0; ///< events lost to the ring bound

    /** Latency distributions; populated when latencyHistograms. */
    LatencyStats lat;
    bool latEnabled = false;

    bool ok() const { return status == RunStatus::Ok; }
};

/** The parallel study sweep driver. */
class StudyRunner
{
  public:
    /** @p study must outlive the runner. */
    explicit StudyRunner(const Study &study, RunnerOptions opts = {});

    /**
     * Run the whole sweep: workload-major order (all configurations
     * of the first workload, then the next workload), matching the
     * figure benches' iteration order.
     *
     * Fault-isolated: a run that throws (model error, deadlock,
     * watchdog, injected fault) lands in its enumeration slot as a
     * non-Ok RunResult with structured error context, and every
     * other run still executes — the sweep result is deterministic
     * for any `jobs`.  Only infrastructure failures (an exception
     * escaping the onRunComplete/reuseRun hooks) abort the sweep,
     * after the pool drains.
     */
    std::vector<RunResult> runAll() const;

    /**
     * The (config, workload-name) pairs of the sweep in enumeration
     * order — the index space FaultPlan and checkpoint keys use.
     */
    std::vector<std::pair<std::string, std::string>> tasks() const;

    /**
     * Canonical fingerprint of everything that determines a run's
     * bytes (study options, budgets); checkpoint records are keyed
     * under it (see sim/resilience.hh).
     */
    std::string fingerprint() const;

    /** Run a single (config, workload) pair. */
    RunResult runOne(const std::string &config,
                     const std::string &workload) const;

    const RunnerOptions &options() const { return opts_; }

    /** The configuration names this sweep covers. */
    const std::vector<std::string> &configs() const { return configs_; }

    /** The workloads this sweep covers. */
    const std::vector<WorkloadParams> &workloads() const
    {
        return workloads_;
    }

    /** Effective instruction budget per hardware thread. */
    std::uint64_t instrPerThread() const { return instr_; }

    /** Threads a given jobs setting resolves to on this machine. */
    static int resolveJobs(int jobs);

  private:
    /**
     * The raw (throwing) run path.  @p index keys fault injection
     * (npos = none); @p phase, when given, tracks the phase the run
     * is in so a catch site can attribute the failure.
     */
    RunResult execute(const std::string &config,
                      const WorkloadParams &w,
                      std::size_t index = std::size_t(-1),
                      int attempt = 1,
                      const char **phase = nullptr) const;

    /** execute() with isolation + bounded retry folded into a slot. */
    RunResult executeGuarded(std::size_t index,
                             const std::string &config,
                             const WorkloadParams &w) const;

    const Study *study_;
    RunnerOptions opts_;
    std::vector<std::string> configs_;
    std::vector<WorkloadParams> workloads_;
    std::uint64_t instr_;
};

/**
 * True when serializing @p runs needs the v2 schema: some run is
 * non-Ok or took more than one attempt.  An all-Ok single-attempt
 * sweep always exports the v1 bytes, whatever options produced it —
 * that keeps the pinned goldens valid and makes a resumed sweep
 * byte-identical to an uninterrupted one.
 */
bool sweepNeedsV2(const std::vector<RunResult> &runs);

/**
 * Serialize a sweep as JSON (schema "cactid-study-v1", documented in
 * the README).  Doubles print with round-trip precision: equal
 * results produce byte-identical output.
 *
 * When sweepNeedsV2() the schema is "cactid-study-v2": every run
 * gains "status" and "attempts", and non-Ok runs carry an "error"
 * object (message, phase, simulated cycle) instead of result fields.
 */
void exportJson(std::ostream &os, const std::vector<RunResult> &runs,
                const StudyRunner &runner);

/** One CSV row per epoch sample across all runs. */
void exportEpochsCsv(std::ostream &os,
                     const std::vector<RunResult> &runs);

/**
 * One CSV row per (config, workload) with the final aggregates.
 * Under sweepNeedsV2() the header and rows gain status,attempts
 * columns (non-Ok rows serialize zeroed aggregates).
 */
void exportSummaryCsv(std::ostream &os,
                      const std::vector<RunResult> &runs);

/**
 * Export the per-run event streams as one Chrome trace-event JSON
 * document (schema "cactid-trace-v1"; loads in Perfetto / chrome://
 * tracing).  Each run becomes a trace "process" named
 * "workload/config" with pid = enumeration index; timestamps are
 * simulated cycles.  Events are canonically sorted, so the bytes are
 * identical for any `jobs` setting.
 */
void exportTraceJson(std::ostream &os,
                     const std::vector<RunResult> &runs);

/**
 * Dump every run's counters as one "cactid-obs-v1" registry document
 * (one registry per run, labeled "workload/config").
 */
void exportRegistry(std::ostream &os,
                    const std::vector<RunResult> &runs);

/**
 * The same registries as exportRegistry in the OpenMetrics text
 * exposition (obs/openmetrics.hh) — the scrape surface a metrics
 * collector or the future cactid-serve consumes.  Each run's series
 * carry a run="workload/config" label.
 */
void exportOpenMetrics(std::ostream &os,
                       const std::vector<RunResult> &runs);

} // namespace archsim

#endif // ARCHSIM_RUNNER_HH
