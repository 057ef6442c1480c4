/**
 * @file
 * Main-memory DRAM chip model implementation.
 */

#include "core/dram_chip.hh"

#include <cmath>

namespace cactid {

namespace {

/** Pad ring / spine / charge pump area overhead on the banks. */
constexpr double kChipOverhead = 1.12;

} // namespace

RepeatedWire
chipGlobalWire(const Technology &t, const MemoryConfig &cfg)
{
    const CellParams &cell = t.cell(cfg.dataCellTech);
    return RepeatedWire(t.wire(WirePlane::Global),
                        t.device(cell.peripheralDevice),
                        cfg.repeaterDerate);
}

void
addChipLevel(const MemoryConfig &cfg, const RepeatedWire &global,
             Solution &s)
{
    // --- Area: banks plus chip periphery.
    s.totalArea = cfg.nBanks * s.bankArea * kChipOverhead;
    s.areaEfficiency =
        s.data.areaEfficiency * s.data.area * cfg.nBanks / s.totalArea;

    // --- Global routing from the center spine to the banks.
    const double chip_w = std::sqrt(s.totalArea * 2.0);
    const double chip_h = s.totalArea / chip_w;
    const double route = (chip_w + chip_h) / 4.0;

    const double route_delay = global.delayPerM() * route;

    s.tRcd += route_delay;
    s.tCas += route_delay;
    s.tRp += route_delay;
    s.tRas += route_delay;
    s.tRc = s.tRas + s.tRp;
    s.accessTime = s.tRcd + s.tCas;

    // --- Burst accounting: one READ/WRITE command moves burstLength
    // bits per pin; internal prefetches of prefetchWidth bits per pin
    // feed the burst.
    const int bits_per_cmd = cfg.ioBits * cfg.burstLength;
    const int prefetches =
        std::max(1, cfg.burstLength / cfg.prefetchWidth);
    const double route_energy_bit = global.energyPerM() * route * 0.5;

    const double addr_route_energy =
        (cfg.physicalAddressBits + 8.0) * route_energy_bit;
    s.activateEnergy += addr_route_energy;
    s.readBurstEnergy = s.readBurstEnergy * prefetches +
                        bits_per_cmd * route_energy_bit +
                        addr_route_energy;
    s.writeBurstEnergy = s.writeBurstEnergy * prefetches +
                         bits_per_cmd * route_energy_bit +
                         addr_route_energy;

    // --- Whole-chip refresh and leakage already cover all banks via
    // combineSolution; add the global-wire repeaters and the always-on
    // interface circuitry (DLL, clock tree, input buffers), which
    // dominates the standby power of a commodity part.
    constexpr double kInterfaceStandbyW = 0.085;
    s.leakage += global.leakagePerM() * route *
                     (cfg.physicalAddressBits + 2.0 * cfg.ioBits *
                                                    cfg.prefetchWidth) +
                 kInterfaceStandbyW;
}

} // namespace cactid
