/**
 * @file
 * SolverEngine: the streaming, instrumented solve pipeline.
 *
 * One solve runs four stages on one thread:
 *
 *   1. the config is validated, the tag path solved, and the partition
 *      candidates enumerated (forEachPartition),
 *   2. each candidate's bank is built and combined into a solution by
 *      one CandidateEvaluator, whose BankBuilder makes every bank part
 *      no candidate changes once per solve,
 *   3. results fold in enumeration order, with an incremental max-area
 *      prune bounding the live working set,
 *   4. the composable optimizer passes pick the winner.
 *
 * Parallelism is across configs, not candidates: solveBatch runs its
 * share groups on up to SolverOptions::jobs threads.
 *
 * Determinism guarantee: a solve is one serial pass in enumeration
 * order, and share groups are independent, touch the cache only
 * before and after they run, and write only their own results.  So
 * SolveResult::best and ::filtered, the EngineStats counters (jobsUsed
 * aside), BatchStats and the cache's counters and LRU order are the
 * same at every jobs setting.
 *
 * The engine is stateless: one engine may solve many configs, from
 * many threads, concurrently.
 */

#ifndef CACTID_CORE_ENGINE_HH
#define CACTID_CORE_ENGINE_HH

#include <cstddef>
#include <exception>
#include <vector>

#include "core/config.hh"
#include "core/engine_stats.hh"
#include "core/result.hh"
#include "tech/technology.hh"

namespace cactid {

class SolveCache;

// The implicit constructors of SolverOptions initialize its deprecated
// member; only code that names it should see the deprecation.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

/** Knobs controlling how a solve executes (not what it computes). */
struct SolverOptions {
    /**
     * Threads solveBatch runs share groups on (a single solve is
     * always serial); 0 means std::thread::hardware_concurrency(), 1
     * runs fully serial.
     */
    int jobs = 0;

    /**
     * Read nowhere: every solve streams and keeps only the constraint
     * survivors.  Kept so callers that still assign it compile; no
     * initializer should set it by position.
     */
    [[deprecated("every solve streams; this option is read nowhere")]]
    bool collectAll = true;

    /**
     * Memoization cache consulted by run() and solveBatch(); nullptr
     * means no caching.  Not owned.  Caching never changes results:
     * the engine's determinism guarantee makes a hit byte-identical to
     * re-solving.
     */
    SolveCache *cache = nullptr;
};

#pragma GCC diagnostic pop

/** What solveBatch did with its requests (dedup effectiveness). */
struct BatchStats {
    std::size_t requests = 0;     ///< configs passed in
    std::size_t uniqueSolves = 0; ///< distinct canonical fingerprints
    std::size_t cacheHits = 0;    ///< unique solves served by the cache
    std::size_t shareGroups = 0;  ///< pipelines actually executed
};

/** The streaming, parallel, instrumented solve pipeline. */
class SolverEngine {
public:
    explicit SolverEngine(SolverOptions opts = {}) : opts_(opts) {}

    /**
     * Solve @p cfg through the configured SolveCache, if any: a
     * hit returns the memoized result (byte-identical best and
     * filtered, stats from the solve that populated the entry), and a
     * miss builds the technology, solves and memoizes.  Statistics are
     * always collected into the result's stats field; pass @p stats to
     * also receive a copy (convenient when the result itself is
     * discarded).
     *
     * @throws InfeasibleConfig when no candidate is feasible.
     */
    SolveResult run(const MemoryConfig &cfg,
                    EngineStats *stats = nullptr) const;

    /**
     * Solve many configs at once, returning results in request order,
     * each bit-identical (best and filtered) to an independent
     * run(cfg) call at any jobs setting.
     *
     * The batch is collapsed twice before any work happens: requests
     * with equal canonical fingerprints share one solve, and requests
     * that differ only in objective weights share one partition
     * enumeration + evaluation + constraint pipeline (the weights
     * only enter the final objective pass, which runs per request).
     * Unique solves go through the cache like run(cfg): every lookup
     * before the first group runs, every insert after the last one
     * ends, in first-appearance order.
     *
     * The share groups run inline when there is one of them or jobs
     * is 1, else on up to jobs threads.  A failing member fails with
     * the error run(member) would throw: a member that fails
     * validation (a bad weight) fails alone, anything else fails its
     * whole group.
     *
     * @param errors when given, receives one entry per request: null
     *        for a request that was solved, else its error (its result
     *        is then default-constructed).  The other requests are
     *        served as usual.
     * @throws the error of the first failing request, in request
     *         order, when @p errors is null.  Every group has run and
     *         every solved one is cached by then.
     */
    std::vector<SolveResult>
    solveBatch(const std::vector<MemoryConfig> &cfgs,
               BatchStats *batch_stats = nullptr,
               std::vector<std::exception_ptr> *errors = nullptr) const;

    const SolverOptions &options() const { return opts_; }

    /** Threads a given jobs setting resolves to on this machine. */
    static int resolveJobs(int jobs);

private:
    /**
     * Stages 1-3 plus the access-time pass: everything before the
     * objective.  Fills @p st and returns the constraint survivors
     * with objectives unset.  This is the weight-independent prefix
     * solveBatch shares across a group.
     */
    std::vector<Solution> runPipeline(const Technology &t,
                                      const MemoryConfig &cfg,
                                      EngineStats &st) const;

    SolverOptions opts_;
};

} // namespace cactid

#endif // CACTID_CORE_ENGINE_HH
