/**
 * @file
 * Optimizer implementation.
 */

#include "core/optimizer.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/trace.hh"

namespace cactid {

namespace {

template <typename Metric>
double
minOf(const std::vector<Solution> &v, Metric metric)
{
    double m = std::numeric_limits<double>::infinity();
    for (const Solution &s : v)
        m = std::min(m, metric(s));
    return m;
}

/** One normalized objective term; zero-valued metrics contribute 0. */
double
term(double weight, double value, double best)
{
    if (weight <= 0.0 || best <= 0.0)
        return 0.0;
    return weight * value / best;
}

} // namespace

std::size_t
filterByArea(std::vector<Solution> &sols, double slack)
{
    OBS_PROFILE_SCOPE("optimizer.filterByArea");
    if (sols.empty())
        return 0;
    const double best =
        minOf(sols, [](const Solution &s) { return s.totalArea; });
    const double limit = best * (1.0 + slack);
    return std::erase_if(sols, [limit](const Solution &s) {
        return !(s.totalArea <= limit);
    });
}

std::size_t
filterByAccessTime(std::vector<Solution> &sols, double slack)
{
    OBS_PROFILE_SCOPE("optimizer.filterByAccessTime");
    if (sols.empty())
        return 0;
    const double best =
        minOf(sols, [](const Solution &s) { return s.accessTime; });
    const double limit = best * (1.0 + slack);
    return std::erase_if(sols, [limit](const Solution &s) {
        return !(s.accessTime <= limit);
    });
}

ObjectiveScales
objectiveScales(const std::vector<Solution> &sols)
{
    ObjectiveScales sc;
    sc.readEnergy =
        minOf(sols, [](const Solution &s) { return s.readEnergy; });
    // Normalize static power over leakage + refresh so a DRAM solution
    // paying refresh power is compared on the same scale it is scored
    // on (normalizing by min leakage alone overweighted the term).
    sc.staticPower = minOf(sols, [](const Solution &s) {
        return s.leakage + s.refreshPower;
    });
    sc.randomCycle =
        minOf(sols, [](const Solution &s) { return s.randomCycle; });
    sc.interleaveCycle = minOf(
        sols, [](const Solution &s) { return s.interleaveCycle; });
    sc.accessTime =
        minOf(sols, [](const Solution &s) { return s.accessTime; });
    sc.totalArea =
        minOf(sols, [](const Solution &s) { return s.totalArea; });
    return sc;
}

double
objectiveValue(const Solution &s, const OptimizationWeights &w,
               const ObjectiveScales &sc)
{
    return term(w.dynamicEnergy, s.readEnergy, sc.readEnergy) +
           term(w.leakage, s.leakage + s.refreshPower, sc.staticPower) +
           term(w.randomCycle, s.randomCycle, sc.randomCycle) +
           term(w.interleaveCycle, s.interleaveCycle,
                sc.interleaveCycle) +
           term(w.accessTime, s.accessTime, sc.accessTime) +
           term(w.area, s.totalArea, sc.totalArea);
}

Solution
selectBest(std::vector<Solution> &sols, const OptimizationWeights &w)
{
    OBS_PROFILE_SCOPE("optimizer.selectBest");
    if (sols.empty())
        throw std::runtime_error("selectBest: empty solution set");
    const ObjectiveScales sc = objectiveScales(sols);
    double best_obj = std::numeric_limits<double>::infinity();
    const Solution *best = nullptr;
    for (Solution &s : sols) {
        s.objective = objectiveValue(s, w, sc);
        if (s.objective < best_obj) {
            best_obj = s.objective;
            best = &s;
        }
    }
    return *best;
}

} // namespace cactid
