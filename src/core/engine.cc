/**
 * @file
 * SolverEngine implementation.
 */

#include "core/engine.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/fingerprint.hh"
#include "core/optimizer.hh"
#include "core/solve_cache.hh"
#include "core/solver.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "util/fan_out.hh"

namespace cactid {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Order-preserving streaming accumulator.  Folding in enumeration
 * order with an incremental max-area prune yields exactly the same
 * survivor set, in the same order, as filtering the fully materialized
 * space: a solution evicted against the running best area can never
 * pass the final area filter, whose threshold only shrinks.
 *
 * The live set is a list of (area, slot) pairs in enumeration order
 * over a store of solutions whose freed slots are reused, so a new
 * best area compacts 16-byte pairs instead of moving solutions.
 */
class StreamingFold {
public:
    StreamingFold(const MemoryConfig &cfg, std::size_t candidates,
                  EngineStats &st)
        : slack_(1.0 + cfg.maxAreaConstraint), st_(st)
    {
        // Every candidate fits, so the store never moves a solution to
        // grow; pages no solution reaches are never touched.
        store_.reserve(candidates);
    }

    void
    operator()(Solution &&s)
    {
        ++st_.solutionsBuilt;
        const double area = s.totalArea;
        if (area < bestArea_) {
            bestArea_ = area;
            const double limit = bestArea_ * slack_;
            std::size_t kept = 0;
            for (const Live &q : live_) {
                if (q.area <= limit)
                    live_[kept++] = q;
                else
                    free_.push_back(q.slot);
            }
            st_.areaPruned += live_.size() - kept;
            live_.resize(kept);
        }
        if (area <= bestArea_ * slack_)
            live_.push_back({area, store(std::move(s))});
        else
            ++st_.areaPruned;
        st_.peakLiveSolutions =
            std::max(st_.peakLiveSolutions, live_.size());
    }

    /** The survivors, in enumeration order. */
    std::vector<Solution>
    take()
    {
        std::vector<Solution> out;
        out.reserve(live_.size());
        for (const Live &q : live_)
            out.push_back(std::move(store_[q.slot]));
        return out;
    }

private:
    struct Live {
        double area;
        std::size_t slot; ///< index into store_
    };

    std::size_t
    store(Solution &&s)
    {
        if (free_.empty()) {
            store_.push_back(std::move(s));
            return store_.size() - 1;
        }
        const std::size_t slot = free_.back();
        free_.pop_back();
        store_[slot] = std::move(s);
        return slot;
    }

    const double slack_;
    EngineStats &st_;
    std::vector<Live> live_;
    std::vector<Solution> store_;
    std::vector<std::size_t> free_;
    double bestArea_ = std::numeric_limits<double>::infinity();
};

} // namespace

int
SolverEngine::resolveJobs(int jobs)
{
    if (jobs > 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<Solution>
SolverEngine::runPipeline(const Technology &t, const MemoryConfig &cfg,
                          EngineStats &st) const
{
    st.jobsUsed = resolveJobs(opts_.jobs);

    // --- Stage 1: validate, solve the tag path, enumerate candidates.
    const auto t_setup = Clock::now();
    CandidateEvaluator eval(t, cfg);
    std::vector<Partition> candidates;
    {
        OBS_PROFILE_SCOPE("solver.enumerate");
        forEachPartition(eval.spec().sizeBits, eval.spec().outputBits,
                         eval.spec().tech, PartitionLimits{},
                         [&](const Partition &p) {
                             candidates.push_back(p);
                         });
    }
    st.partitionsEnumerated = candidates.size();
    st.setupSeconds = secondsSince(t_setup);

    // --- Stages 2+3: evaluate the candidates in enumeration order and
    // fold each result into the live set.
    const auto t_eval = Clock::now();
    StreamingFold fold(cfg, candidates.size(), st);
    {
        OBS_PROFILE_SCOPE("solver.evaluate");
        for (const Partition &p : candidates) {
            if (auto s = eval(p))
                fold(std::move(*s));
            else
                ++st.partitionsInfeasible;
        }
    }
    st.evaluateSeconds = secondsSince(t_eval);

    if (st.solutionsBuilt == 0)
        throw InfeasibleConfig("no feasible solutions for " +
                               cfg.summary());

    // --- Stage 4a: the access-time constraint pass.  The streaming
    // fold already applied the final max-area criterion (its running
    // best converges to the true best).  The survivors returned here
    // are weight-independent: only the objective pass remains.
    const auto t_filter = Clock::now();
    OBS_PROFILE_SCOPE("solver.filter");
    std::vector<Solution> live = fold.take();
    st.timePruned = filterByAccessTime(live, cfg.maxAccTimeConstraint);
    st.filterSeconds = secondsSince(t_filter);
    return live;
}

SolveResult
SolverEngine::run(const MemoryConfig &cfg, EngineStats *stats) const
{
    SolveCache *const cache = opts_.cache;
    std::string key;
    ConfigFingerprint fp;
    SolveResult res;
    if (cache) {
        key = canonicalKey(cfg);
        fp = keyFingerprint(key);
        if (cache->lookup(fp, key, res)) {
            if (stats)
                *stats = res.stats;
            return res;
        }
    }

    const Technology t(cfg.featureNm, cfg.temperatureK);
    {
        OBS_PROFILE_SCOPE("solver.run");
        const auto t_total = Clock::now();
        std::vector<Solution> live = runPipeline(t, cfg, res.stats);

        // --- Stage 4b: the objective pass.
        const auto t_objective = Clock::now();
        res.best = selectBest(live, cfg.weights);
        res.filtered = std::move(live);
        res.stats.filterSeconds += secondsSince(t_objective);
        res.stats.totalSeconds = secondsSince(t_total);
    }
    if (stats)
        *stats = res.stats;
    if (cache)
        cache->insert(fp, key, res);
    return res;
}

std::vector<SolveResult>
SolverEngine::solveBatch(const std::vector<MemoryConfig> &cfgs,
                         BatchStats *batch_stats,
                         std::vector<std::exception_ptr> *errors) const
{
    OBS_PROFILE_SCOPE("solver.batch");
    BatchStats bs;
    bs.requests = cfgs.size();

    // --- Collapse 1: requests with equal canonical keys are one
    // solve.  Unique solves keep first-appearance order so the work
    // below is deterministic regardless of request order ties.
    struct Unique {
        const MemoryConfig *cfg = nullptr;
        std::string key;
        ConfigFingerprint fp;
        std::vector<std::size_t> requests; ///< indices into cfgs
        SolveResult res;
        bool solved = false; ///< by a pipeline of this batch
        std::exception_ptr error;
    };
    std::vector<Unique> uniq;
    std::unordered_map<std::string, std::size_t> byKey;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        std::string key = canonicalKey(cfgs[i]);
        const auto it = byKey.find(key);
        if (it != byKey.end()) {
            uniq[it->second].requests.push_back(i);
            continue;
        }
        byKey.emplace(key, uniq.size());
        Unique u;
        u.cfg = &cfgs[i];
        u.fp = keyFingerprint(key);
        u.key = std::move(key);
        u.requests.push_back(i);
        uniq.push_back(std::move(u));
    }
    bs.uniqueSolves = uniq.size();

    // --- Collapse 2: cache, then group the misses by share key.
    // Members of a group differ only in objective weights, so stages
    // 1-3 and both constraint filters run once per group.  Every
    // lookup happens here, before any group runs.
    SolveCache *const cache = opts_.cache;
    std::vector<std::vector<std::size_t>> groups;
    std::unordered_map<std::string, std::size_t> byShareKey;
    for (std::size_t ui = 0; ui < uniq.size(); ++ui) {
        Unique &u = uniq[ui];
        if (cache && cache->lookup(u.fp, u.key, u.res)) {
            ++bs.cacheHits;
            continue;
        }
        std::string share = canonicalShareKey(*u.cfg);
        const auto it = byShareKey.find(share);
        if (it != byShareKey.end()) {
            groups[it->second].push_back(ui);
        } else {
            byShareKey.emplace(std::move(share), groups.size());
            groups.push_back({ui});
        }
    }
    bs.shareGroups = groups.size();

    // One group: its members take the steps of run(member) in the
    // same order (technology, validation, pipeline, objective), so each
    // failure is the one run(member) throws.  A member that fails
    // validation (a bad weight) fails alone; any other failure fails
    // every member not yet solved.  A group writes only its own
    // members, and lets nothing escape.
    auto solveGroup = [&](const std::vector<std::size_t> &group) {
        const auto t_total = Clock::now();
        try {
            const MemoryConfig &first = *uniq[group.front()].cfg;
            const Technology t(first.featureNm, first.temperatureK);
            std::vector<std::size_t> valid;
            for (const std::size_t ui : group) {
                try {
                    uniq[ui].cfg->validate();
                    valid.push_back(ui);
                } catch (...) {
                    uniq[ui].error = std::current_exception();
                }
            }
            if (valid.empty())
                return;
            EngineStats shared;
            std::vector<Solution> live =
                runPipeline(t, *uniq[valid.front()].cfg, shared);
            for (std::size_t vi = 0; vi < valid.size(); ++vi) {
                Unique &u = uniq[valid[vi]];
                const bool last = vi + 1 == valid.size();
                u.res.stats = shared;
                // selectBest writes the member's objective into the
                // survivors, so each member ranks its own copy —
                // exactly what an independent run(cfg) would have
                // produced.
                std::vector<Solution> member_live =
                    last ? std::move(live) : live;
                const auto t_objective = Clock::now();
                u.res.best = selectBest(member_live, u.cfg->weights);
                u.res.filtered = std::move(member_live);
                u.res.stats.filterSeconds += secondsSince(t_objective);
                u.res.stats.totalSeconds = secondsSince(t_total);
                u.solved = true;
            }
        } catch (...) {
            for (const std::size_t ui : group) {
                if (!uniq[ui].solved && !uniq[ui].error)
                    uniq[ui].error = std::current_exception();
            }
        }
    };

    // --- Run the groups on up to jobs threads, this one among them.
    // Every thread has joined before anything below reads a result.
    util::fanOut(groups.size(), resolveJobs(opts_.jobs),
                 [&](std::size_t g) { solveGroup(groups[g]); });

    // --- Memoize, in first-appearance order, what the groups solved.
    if (cache) {
        for (const Unique &u : uniq) {
            if (u.solved)
                cache->insert(u.fp, u.key, u.res);
        }
    }

    // --- Scatter back to request order.
    std::vector<SolveResult> out(cfgs.size());
    std::vector<std::exception_ptr> failed(cfgs.size());
    for (Unique &u : uniq) {
        for (std::size_t ri = 0; ri < u.requests.size(); ++ri) {
            const bool last = ri + 1 == u.requests.size();
            out[u.requests[ri]] =
                last ? std::move(u.res) : u.res;
            failed[u.requests[ri]] = u.error;
        }
    }
    if (batch_stats)
        *batch_stats = bs;
    if (errors) {
        *errors = std::move(failed);
    } else {
        for (const std::exception_ptr &e : failed) {
            if (e)
                std::rethrow_exception(e);
        }
    }
    return out;
}

std::string
EngineStats::report() const
{
    std::ostringstream os;
    os.precision(4);
    os << "engine: " << jobsUsed << " job(s)\n";
    os << "partitions: " << partitionsEnumerated << " enumerated, "
       << partitionsInfeasible << " infeasible, " << solutionsBuilt
       << " solutions built\n";
    os << "pruned: " << areaPruned << " by max-area, " << timePruned
       << " by max-acctime ("
       << solutionsBuilt - areaPruned - timePruned << " kept, peak "
       << peakLiveSolutions << " live)\n";
    os << "time: setup " << setupSeconds * 1e3 << " ms, evaluate "
       << evaluateSeconds * 1e3 << " ms, filter "
       << filterSeconds * 1e3 << " ms, total " << totalSeconds * 1e3
       << " ms\n";
    return os.str();
}

void
registerEngineStats(obs::Registry &r, const EngineStats &s)
{
    r.counter("solver.partitions_enumerated") = s.partitionsEnumerated;
    r.counter("solver.partitions_infeasible") = s.partitionsInfeasible;
    r.counter("solver.solutions_built") = s.solutionsBuilt;
    r.counter("solver.area_pruned") = s.areaPruned;
    r.counter("solver.time_pruned") = s.timePruned;
    r.counter("solver.peak_live_solutions") = s.peakLiveSolutions;
    r.counter("solver.jobs_used") = std::uint64_t(s.jobsUsed);
    r.gauge("solver.setup_seconds") = s.setupSeconds;
    r.gauge("solver.evaluate_seconds") = s.evaluateSeconds;
    r.gauge("solver.filter_seconds") = s.filterSeconds;
    r.gauge("solver.total_seconds") = s.totalSeconds;
}

} // namespace cactid
