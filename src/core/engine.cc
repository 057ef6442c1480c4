/**
 * @file
 * SolverEngine implementation.
 */

#include "core/engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>
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
 */
class StreamingFold {
public:
    StreamingFold(const MemoryConfig &cfg, bool collect_all,
                  EngineStats &st, SolveResult &res)
        : slack_(1.0 + cfg.maxAreaConstraint), collectAll_(collect_all),
          st_(st), res_(res)
    {
    }

    void
    operator()(Solution &&s)
    {
        ++st_.solutionsBuilt;
        if (collectAll_)
            res_.all.push_back(s);
        if (s.totalArea < bestArea_) {
            bestArea_ = s.totalArea;
            const double limit = bestArea_ * slack_;
            st_.areaPruned +=
                std::erase_if(live_, [limit](const Solution &q) {
                    return !(q.totalArea <= limit);
                });
        }
        if (s.totalArea <= bestArea_ * slack_)
            live_.push_back(std::move(s));
        else
            ++st_.areaPruned;
        st_.peakLiveSolutions =
            std::max(st_.peakLiveSolutions, live_.size());
    }

    std::vector<Solution> take() { return std::move(live_); }

private:
    const double slack_;
    const bool collectAll_;
    EngineStats &st_;
    SolveResult &res_;
    std::vector<Solution> live_;
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
                          SolveResult &res) const
{
    EngineStats &st = res.stats;
    st.jobsUsed = resolveJobs(opts_.jobs);

    // --- Stage 1: setup + candidate enumeration (streamed, but the
    // Partition index is tiny and must exist before the fan-out so the
    // merge has a deterministic order to follow).
    const auto t_setup = Clock::now();
    const CandidateEvaluator eval(t, cfg);
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

    // --- Stage 2+3: evaluate candidates (possibly in parallel) and
    // fold the results in enumeration order.
    const auto t_eval = Clock::now();
    StreamingFold fold(cfg, opts_.collectAll, st, res);

    const int jobs = static_cast<int>(
        std::min(static_cast<std::size_t>(st.jobsUsed),
                 std::max<std::size_t>(candidates.size(), 1)));
    if (jobs <= 1) {
        OBS_PROFILE_SCOPE("solver.evaluate");
        for (const Partition &p : candidates) {
            if (auto s = eval(p))
                fold(std::move(*s));
            else
                ++st.partitionsInfeasible;
        }
    } else {
        OBS_PROFILE_SCOPE("solver.evaluate");
        const std::size_t n = candidates.size();
        std::vector<std::optional<Solution>> slots(n);
        std::vector<char> done(n, 0);
        std::mutex mtx;
        std::condition_variable cv;
        std::atomic<std::size_t> next{0};

        auto worker = [&] {
            OBS_PROFILE_SCOPE("solver.worker");
            for (std::size_t i = next.fetch_add(1); i < n;
                 i = next.fetch_add(1)) {
                std::optional<Solution> s = eval(candidates[i]);
                {
                    const std::lock_guard<std::mutex> lock(mtx);
                    slots[i] = std::move(s);
                    done[i] = 1;
                }
                cv.notify_one();
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (int w = 0; w < jobs; ++w)
            pool.emplace_back(worker);

        // The merge consumes slot i only once evaluated, in index
        // order; workers run ahead while earlier slots are folded.
        for (std::size_t i = 0; i < n; ++i) {
            std::optional<Solution> s;
            {
                std::unique_lock<std::mutex> lock(mtx);
                cv.wait(lock, [&] { return done[i] != 0; });
                s = std::move(slots[i]);
                slots[i].reset();
            }
            if (s)
                fold(std::move(*s));
            else
                ++st.partitionsInfeasible;
        }
        for (std::thread &th : pool)
            th.join();
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
SolverEngine::run(const Technology &t, const MemoryConfig &cfg,
                  EngineStats *stats) const
{
    OBS_PROFILE_SCOPE("solver.run");
    const auto t_total = Clock::now();

    SolveResult res;
    std::vector<Solution> live = runPipeline(t, cfg, res);

    // --- Stage 4b: the objective pass.
    const auto t_objective = Clock::now();
    res.best = selectBest(live, cfg.weights);
    res.filtered = std::move(live);
    res.stats.filterSeconds += secondsSince(t_objective);

    res.stats.totalSeconds = secondsSince(t_total);
    if (stats)
        *stats = res.stats;
    return res;
}

SolveResult
SolverEngine::run(const MemoryConfig &cfg, EngineStats *stats) const
{
    SolveCache *cache = opts_.cache ? opts_.cache : globalSolveCache();
    std::string key;
    ConfigFingerprint fp;
    if (cache) {
        key = canonicalKey(cfg);
        fp = keyFingerprint(key);
        SolveResult out;
        if (cache->lookup(fp, key, opts_.collectAll, out)) {
            if (stats)
                *stats = out.stats;
            return out;
        }
    }
    const Technology t(cfg.featureNm, cfg.temperatureK);
    SolveResult res = run(t, cfg, stats);
    if (cache)
        cache->insert(fp, key, res, opts_.collectAll);
    return res;
}

std::vector<SolveResult>
SolverEngine::solveBatch(const std::vector<MemoryConfig> &cfgs,
                         BatchStats *batch_stats) const
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
        bool solved = false;
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
    // 1-3 and both constraint filters run once per group.
    SolveCache *cache = opts_.cache ? opts_.cache : globalSolveCache();
    std::vector<std::vector<std::size_t>> groups;
    std::unordered_map<std::string, std::size_t> byShareKey;
    for (std::size_t ui = 0; ui < uniq.size(); ++ui) {
        Unique &u = uniq[ui];
        if (cache && cache->lookup(u.fp, u.key, opts_.collectAll,
                                   u.res)) {
            u.solved = true;
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

    for (const std::vector<std::size_t> &group : groups) {
        const auto t_total = Clock::now();
        const MemoryConfig &rep = *uniq[group.front()].cfg;
        const Technology t(rep.featureNm, rep.temperatureK);
        SolveResult shared;
        std::vector<Solution> live = runPipeline(t, rep, shared);
        for (std::size_t gi = 0; gi < group.size(); ++gi) {
            Unique &u = uniq[group[gi]];
            // runPipeline validated only the group's first config; the
            // others differ from it only in weights, which selectBest
            // needs finite.
            u.cfg->validate();
            const bool last = gi + 1 == group.size();
            u.res.all = last ? std::move(shared.all) : shared.all;
            u.res.stats = shared.stats;
            // selectBest writes the member's objective into the
            // survivors, so each member ranks its own copy — exactly
            // what an independent run(cfg) would have produced.
            std::vector<Solution> member_live =
                last ? std::move(live) : live;
            const auto t_objective = Clock::now();
            u.res.best = selectBest(member_live, u.cfg->weights);
            u.res.filtered = std::move(member_live);
            u.res.stats.filterSeconds += secondsSince(t_objective);
            u.res.stats.totalSeconds = secondsSince(t_total);
            if (cache)
                cache->insert(u.fp, u.key, u.res, opts_.collectAll);
            u.solved = true;
        }
    }

    // --- Scatter back to request order.
    std::vector<SolveResult> out(cfgs.size());
    for (Unique &u : uniq) {
        for (std::size_t ri = 0; ri < u.requests.size(); ++ri) {
            const bool last = ri + 1 == u.requests.size();
            out[u.requests[ri]] =
                last ? std::move(u.res) : u.res;
        }
    }
    if (batch_stats)
        *batch_stats = bs;
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
