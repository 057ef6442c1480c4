/**
 * @file
 * Solution optimizer (paper section 2.4), decomposed into composable
 * passes: a max-area constraint filter, a max-access-time constraint
 * filter, and a normalized weighted objective over dynamic energy,
 * static power (leakage + refresh), random cycle time and multisubbank
 * interleave cycle time.  The SolverEngine composes the passes (its
 * streaming fold applies the area criterion as solutions arrive); each
 * pass is exposed on its own so tests and custom sweeps can run and
 * instrument them individually.
 */

#ifndef CACTID_CORE_OPTIMIZER_HH
#define CACTID_CORE_OPTIMIZER_HH

#include <cstddef>
#include <vector>

#include "core/config.hh"
#include "core/result.hh"

namespace cactid {

/**
 * Drop every solution whose totalArea exceeds
 * best-area * (1 + slack); a solution exactly at the boundary is kept
 * (<= semantics).  In-place and order-preserving.
 *
 * @return the number of solutions removed.
 */
std::size_t filterByArea(std::vector<Solution> &sols, double slack);

/**
 * Drop every solution whose accessTime exceeds
 * best-access-time * (1 + slack); boundary solutions are kept.
 * In-place and order-preserving.
 *
 * @return the number of solutions removed.
 */
std::size_t filterByAccessTime(std::vector<Solution> &sols,
                               double slack);

/**
 * Normalization denominators of the weighted objective: the best
 * (minimum) value of each metric among the constraint survivors.
 * Static power is normalized as leakage + refreshPower so DRAM
 * solutions with refresh are weighted on the same scale as SRAM.
 */
struct ObjectiveScales {
    double readEnergy = 0.0;
    double staticPower = 0.0; ///< min over (leakage + refreshPower)
    double randomCycle = 0.0;
    double interleaveCycle = 0.0;
    double accessTime = 0.0;
    double totalArea = 0.0;
};

/** Compute the normalization scales over @p sols. */
ObjectiveScales objectiveScales(const std::vector<Solution> &sols);

/** One solution's weighted objective (lower is better). */
double objectiveValue(const Solution &s, const OptimizationWeights &w,
                      const ObjectiveScales &scales);

/**
 * Assign Solution::objective to every solution and return the best
 * one (first wins ties, matching enumeration order).
 *
 * @throws std::runtime_error when @p sols is empty.
 */
Solution selectBest(std::vector<Solution> &sols,
                    const OptimizationWeights &w);

} // namespace cactid

#endif // CACTID_CORE_OPTIMIZER_HH
