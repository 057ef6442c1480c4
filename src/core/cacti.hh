/**
 * @file
 * CACTI-D public entry point.
 *
 * Typical use:
 * @code
 *   cactid::MemoryConfig cfg;
 *   cfg.capacityBytes = 24 << 20;
 *   cfg.type = cactid::MemoryType::Cache;
 *   cfg.associativity = 12;
 *   cfg.nBanks = 8;
 *   cfg.dataCellTech = cactid::RamCellTech::Sram;
 *   auto result = cactid::solve(cfg);
 *   std::cout << result.best.report();
 * @endcode
 */

#ifndef CACTID_CORE_CACTI_HH
#define CACTID_CORE_CACTI_HH

#include "core/config.hh"
#include "core/crossbar.hh"
#include "core/engine.hh"
#include "core/optimizer.hh"
#include "core/result.hh"
#include "core/solver.hh"
#include "tech/technology.hh"

namespace cactid {

/**
 * Solve @p cfg: enumerate the organization space, apply the section-2.4
 * optimization, and return the chosen solution, the constraint
 * survivors and the solve's stats.  Both overloads run on the
 * SolverEngine; the plain form uses the default options (jobs =
 * hardware concurrency, no solve cache).
 */
SolveResult solve(const MemoryConfig &cfg);

/** Solve with explicit engine options (thread count, cache). */
SolveResult solve(const MemoryConfig &cfg, const SolverOptions &opts,
                  EngineStats *stats = nullptr);

} // namespace cactid

#endif // CACTID_CORE_CACTI_HH
