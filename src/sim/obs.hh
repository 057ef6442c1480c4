/**
 * @file
 * Registry adapters for the simulator: publish SimStats /
 * LatencyStats / PowerBreakdown under the stable obs naming scheme
 * (see obs/registry.hh).  The solver-side adapter for EngineStats
 * lives with the engine (core/engine_stats.hh); together they put
 * every counter family in the repo behind one dump schema.
 */

#ifndef ARCHSIM_OBS_HH
#define ARCHSIM_OBS_HH

#include "obs/registry.hh"
#include "sim/cpu/system.hh"
#include "sim/latency.hh"
#include "sim/power/power.hh"
#include "sim/resilience.hh"

namespace archsim {

/** sim.* counters and gauges from one run's aggregate statistics. */
void registerSimStats(cactid::obs::Registry &r, const SimStats &s);

/**
 * sim.lat.* histograms from one run's latency distributions (merged
 * into the registry's histograms, so per-run registries get copies
 * and a sweep registry accumulates across runs).
 */
void registerLatencyStats(cactid::obs::Registry &r,
                          const LatencyStats &lat);

/** power.* gauges (W) from a computed power breakdown. */
void registerPowerBreakdown(cactid::obs::Registry &r,
                            const PowerBreakdown &b);

/**
 * run.* status counters of one sweep slot (emitted only for v2
 * sweeps, so v1 registry dumps keep their exact key set).
 */
void registerRunStatus(cactid::obs::Registry &r, RunStatus status,
                       int attempts);

} // namespace archsim

#endif // ARCHSIM_OBS_HH
