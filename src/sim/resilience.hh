/**
 * @file
 * Sweep resilience primitives: per-run status and error structure,
 * the watchdog/deadlock exception types the simulator throws, a
 * deterministic fault-injection plan, and the atomic per-run
 * checkpoint store behind `cactid-study --checkpoint/--resume`.
 *
 * Design-space sweeps run thousands of (config, workload) points; a
 * single bad point must not cost the campaign.  The StudyRunner
 * converts per-run failures into RunStatus values in the result slot
 * (sim/runner.hh), and every claim this layer makes — isolation,
 * deterministic watchdog cycles, resume byte-identity — is provable
 * under an injected FaultPlan, so tests/test_resilience.cc exercises
 * the exact failure paths production sweeps hit.
 */

#ifndef ARCHSIM_RESILIENCE_HH
#define ARCHSIM_RESILIENCE_HH

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/common.hh"

namespace archsim {

struct RunResult; // sim/runner.hh

/** Outcome of one (config, workload) run inside a sweep. */
enum class RunStatus : std::uint8_t {
    Ok = 0,       ///< completed normally
    Failed = 1,   ///< threw (model error, deadlock, injected fault)
    TimedOut = 2, ///< exceeded the cycle or wall-clock budget
    Skipped = 3,  ///< never executed (reserved for schedulers)
};

/** Stable lower-case name ("ok", "failed", "timed_out", "skipped"). */
const char *runStatusName(RunStatus s);

/** Parse a runStatusName back; false on unknown names. */
bool parseRunStatus(std::string_view name, RunStatus &out);

/** Structured context of a non-Ok run. */
struct RunError {
    std::string message; ///< exception text (one line)
    std::string phase;   ///< "setup", "solve", "sim", "derive", ...
    Cycle cycle = 0;     ///< simulated cycle at failure (0 if n/a)
};

/**
 * Thrown by System::run when a RunLimits budget expires.  The cycle
 * is the first *visited* simulated cycle at or past the budget, so
 * it is a pure function of the (deterministic) simulation — equal
 * for any StudyRunner worker count.
 */
class SimTimeout : public std::runtime_error
{
  public:
    SimTimeout(const std::string &what, Cycle at)
        : std::runtime_error(what), atCycle(at)
    {}
    Cycle atCycle;
};

/** Thrown by System::run when every live thread is blocked forever. */
class SimDeadlock : public std::runtime_error
{
  public:
    SimDeadlock(const std::string &what, Cycle at)
        : std::runtime_error(what), atCycle(at)
    {}
    Cycle atCycle;
};

/** Thrown at a FaultPlan site (never from production code paths). */
class InjectedFault : public std::runtime_error
{
  public:
    explicit InjectedFault(const std::string &what, Cycle at = 0)
        : std::runtime_error(what), atCycle(at)
    {}
    Cycle atCycle;
};

/**
 * Opt-in bounded retry for transient failures.  Failed runs re-run
 * up to maxAttempts total executions; TimedOut runs only when
 * retryTimeouts (a timeout usually reproduces).  The attempt count
 * lands in RunResult::attempts, so retried sweeps are auditable.
 */
struct RetryPolicy {
    int maxAttempts = 1;       ///< total executions per run (>= 1)
    bool retryTimeouts = false;
};

/** Where a FaultSpec fires. */
enum class FaultSite : std::uint8_t {
    Solve,  ///< run setup, before the simulation starts
    Step,   ///< during the simulation, at a given cycle
    Export, ///< while persisting the run (checkpoint record write)
};

/** What an injected fault does. */
enum class FaultAction : std::uint8_t {
    Throw,   ///< raise InjectedFault -> RunStatus::Failed
    Timeout, ///< raise SimTimeout -> RunStatus::TimedOut
};

/** One injected fault, keyed by sweep enumeration index. */
struct FaultSpec {
    std::size_t run = 0; ///< enumeration index within the sweep
    FaultSite site = FaultSite::Solve;
    FaultAction action = FaultAction::Throw;
    Cycle cycle = 0; ///< Step site: fire at the first cycle >= this
    /**
     * Attempts that observe the fault; attempts beyond this succeed.
     * The default (max) is a persistent fault; `x1` in the spec
     * syntax models a transient failure a retry recovers from.
     */
    int failAttempts = std::numeric_limits<int>::max();
};

/**
 * A deterministic set of injected faults for one sweep.
 *
 * Spec syntax (comma separated): `INDEX@SITE[:CYCLE][xN]` with SITE
 * one of `solve`, `step`, `timeout` (a Step-site timeout) or
 * `export`, e.g. `0@solve`, `2@step:5000x1`, `3@timeout:8000`,
 * `1@export`.
 */
struct FaultPlan {
    std::vector<FaultSpec> faults;

    bool empty() const { return faults.empty(); }

    /** The fault for (@p run, @p site), or nullptr. */
    const FaultSpec *find(std::size_t run, FaultSite site) const;

    /** True when (@p run, @p site, @p attempt) should fail. */
    bool
    fires(std::size_t run, FaultSite site, int attempt) const
    {
        const FaultSpec *f = find(run, site);
        return f && attempt <= f->failAttempts;
    }

    /** @throws std::invalid_argument on malformed specs. */
    static FaultPlan parse(const std::string &spec);

    /** Canonical spec string (sorted by run, then site); parseable. */
    std::string canonical() const;
};

/**
 * Canonical fingerprint of the sweep-level options that determine a
 * run's results.  Two sweeps of one build sharing this string (and
 * the study) may exchange checkpoint records for the same (config,
 * workload); the wall-clock budget and the fault plan are
 * deliberately excluded — neither changes the bytes of an Ok run.
 */
std::string sweepFingerprint(std::uint64_t instr_per_thread,
                             Cycle epoch_cycles, bool thermal,
                             Cycle max_cycles);

/**
 * Per-run atomic checkpoint store: one `run-<hash>.ckpt` record per
 * completed run under a directory, written via the shared atomic
 * write helper (util/atomic_file.hh) in the checksummed record
 * framing (util/record.hh), so a sweep killed mid-write never leaves
 * a record a later --resume would trust.  Records carry the build
 * stamp (obs::buildStamp); a binary with another stamp re-runs them.
 */
class CheckpointStore
{
  public:
    /** Outcome of loading one record. */
    enum class Load : std::uint8_t {
        Missing, ///< no record on disk
        Invalid, ///< torn, corrupt, or from another build or sweep
        Loaded,  ///< @p out is the persisted RunResult
    };

    /**
     * Creates @p dir if it is missing.
     *
     * @throws std::invalid_argument (one line) when @p dir is not a
     *         directory once creating it was tried: a regular file, or
     *         a path under a missing one.
     */
    CheckpointStore(std::string dir, std::string fingerprint);

    /** Record path of one (config, workload) run. */
    std::string path(const std::string &config,
                     const std::string &workload) const;

    /**
     * Atomically persist @p r (status, error, stats, power, thermal,
     * epochs).  The event trace is not persisted — checkpointing a
     * traced sweep is rejected at the tool layer.
     */
    bool save(const RunResult &r, std::string *err = nullptr) const;

    /** Load and validate the record for (config, workload). */
    Load load(const std::string &config, const std::string &workload,
              RunResult &out) const;

    const std::string &dir() const { return dir_; }
    const std::string &fingerprint() const { return fp_; }

    /** Serialize a record to the cactid-ckpt-v3 text format. */
    std::string encode(const RunResult &r) const;

    /** Parse + validate a record; Load::Invalid on any defect. */
    Load decode(const std::string &bytes, RunResult &out) const;

  private:
    std::string dir_;
    std::string fp_;
};

} // namespace archsim

#endif // ARCHSIM_RESILIENCE_HH
