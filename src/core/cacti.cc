/**
 * @file
 * CACTI-D entry point implementation: thin wrappers over SolverEngine.
 */

#include "core/cacti.hh"

namespace cactid {

SolveResult
solve(const MemoryConfig &cfg, const SolverOptions &opts,
      EngineStats *stats)
{
    return SolverEngine(opts).run(cfg, stats);
}

SolveResult
solve(const MemoryConfig &cfg)
{
    return solve(cfg, SolverOptions{});
}

} // namespace cactid
