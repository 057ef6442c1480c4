/**
 * @file
 * Main-memory DRAM chip model (paper section 2.1): chip-level routing,
 * pad/periphery area, burst handling, and refresh for a multi-bank
 * commodity DRAM part.
 */

#ifndef CACTID_CORE_DRAM_CHIP_HH
#define CACTID_CORE_DRAM_CHIP_HH

#include "core/config.hh"
#include "core/result.hh"
#include "tech/technology.hh"
#include "tech/wire.hh"

namespace cactid {

/**
 * The repeated global wire that routes a chip's address and data from
 * the center spine to its banks.  It depends on the config alone, so a
 * solve sizes it once for all of its candidates.
 */
RepeatedWire chipGlobalWire(const Technology &t, const MemoryConfig &cfg);

/**
 * Augment a per-bank solution with chip-level effects: global
 * address/data routing across the die over @p global
 * (chipGlobalWire), pad-ring area overhead, READ and WRITE burst
 * energies for the configured burst length, and whole-chip refresh
 * power.
 */
void addChipLevel(const MemoryConfig &cfg, const RepeatedWire &global,
                  Solution &s);

} // namespace cactid

#endif // CACTID_CORE_DRAM_CHIP_HH
