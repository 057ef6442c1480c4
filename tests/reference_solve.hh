/**
 * @file
 * The reference solve the engine is tested against: build every
 * feasible solution first, then run the section-2.4 passes over the
 * whole set.  The engine folds solutions as they are built and keeps
 * only those that can still pass the area filter, so it must reach
 * the same survivors, winner and counts as this path.
 */

#ifndef CACTID_TESTS_REFERENCE_SOLVE_HH
#define CACTID_TESTS_REFERENCE_SOLVE_HH

#include <utility>
#include <vector>

#include "core/cacti.hh"

namespace cactid::reference {

/**
 * Every feasible complete solution for @p cfg, in enumeration order.
 * For caches the tag array is solved once (latency-optimal) and
 * combined with each feasible data organization; for main-memory
 * chips the DRAM chip model adds chip-level routing and interface
 * effects.
 */
inline std::vector<Solution>
enumerateSolutions(const Technology &t, const MemoryConfig &cfg)
{
    CandidateEvaluator eval(t, cfg);
    std::vector<Solution> out;
    forEachPartition(eval.spec().sizeBits, eval.spec().outputBits,
                     eval.spec().tech, PartitionLimits{},
                     [&](const Partition &p) {
                         if (auto s = eval(p))
                             out.push_back(std::move(*s));
                     });
    return out;
}

/**
 * The area filter, then the access-time filter, then the weighted
 * objective, over the whole set.  Fills stats.solutionsBuilt (the
 * feasible count) and the pruned counts.
 *
 * @throws InfeasibleConfig when @p all is empty.
 */
inline SolveResult
optimize(const MemoryConfig &cfg, std::vector<Solution> all)
{
    if (all.empty())
        throw InfeasibleConfig("no feasible solutions for " +
                               cfg.summary());
    SolveResult res;
    res.stats.solutionsBuilt = all.size();
    res.stats.areaPruned = filterByArea(all, cfg.maxAreaConstraint);
    res.stats.timePruned =
        filterByAccessTime(all, cfg.maxAccTimeConstraint);
    res.best = selectBest(all, cfg.weights);
    res.filtered = std::move(all);
    return res;
}

} // namespace cactid::reference

#endif // CACTID_TESTS_REFERENCE_SOLVE_HH
