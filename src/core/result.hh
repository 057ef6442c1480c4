/**
 * @file
 * Solution structures returned by the CACTI-D solvers.
 */

#ifndef CACTID_CORE_RESULT_HH
#define CACTID_CORE_RESULT_HH

#include <string>
#include <vector>

#include "array/bank.hh"
#include "core/config.hh"
#include "core/engine_stats.hh"

namespace cactid {

/**
 * One complete solution: the chosen data (and, for caches, tag) array
 * organizations plus the rolled-up whole-memory metrics.
 */
struct Solution {
    BankMetrics data;     ///< data array of one bank
    BankMetrics tag;      ///< tag array of one bank (caches only)
    bool hasTag = false;

    // --- Whole-structure roll-up (all banks).
    double totalArea = 0.0;       ///< m^2, all banks
    double bankArea = 0.0;        ///< m^2, one bank
    double areaEfficiency = 0.0;  ///< cell area / total area
    double accessTime = 0.0;      ///< s, per the access mode
    double randomCycle = 0.0;     ///< s
    double interleaveCycle = 0.0; ///< multisubbank interleave cycle (s)
    double readEnergy = 0.0;      ///< J per read access (tag + data)
    double writeEnergy = 0.0;     ///< J per write access
    double leakage = 0.0;         ///< W, all banks incl. tags
    double refreshPower = 0.0;    ///< W, all banks (DRAM)

    // --- Main-memory timing interface (MainMemoryChip only).
    double tRcd = 0.0;
    double tCas = 0.0;
    double tRp = 0.0;
    double tRas = 0.0;
    double tRc = 0.0;
    double tRrd = 0.0;
    double activateEnergy = 0.0;  ///< per ACTIVATE+PRECHARGE pair (J)
    double readBurstEnergy = 0.0; ///< per READ command (J)
    double writeBurstEnergy = 0.0;

    /** Independently interleavable units per bank. */
    int nSubbanks = 0;

    /** Objective value assigned by the optimizer (lower is better). */
    double objective = 0.0;

    /** Multi-line human-readable report. */
    std::string report() const;
};

/**
 * Result of a solve: the chosen solution plus the constraint
 * survivors it was picked from.  The solve streams, so the rest of
 * the explored space is only counted (stats.solutionsBuilt), never
 * kept.
 */
struct SolveResult {
    Solution best;
    /** All feasible solutions that passed the constraint filters. */
    std::vector<Solution> filtered;
    /** How the solve went: counters and per-stage wall times. */
    EngineStats stats;
};

} // namespace cactid

#endif // CACTID_CORE_RESULT_HH
