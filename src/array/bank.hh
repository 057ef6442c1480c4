/**
 * @file
 * Bank model: tiles mats into a grid, adds the H-tree networks, and
 * rolls everything up into the area / timing / energy metrics that the
 * optimizer ranks.  Supports both the SRAM-like interface (access time,
 * random cycle time, multisubbank interleave cycle time) and the main
 * memory interface (tRCD, CAS latency, tRP, tRAS, tRC, tRRD and the
 * ACTIVATE / READ / WRITE command energies) of paper sections 2.3.4-2.3.5.
 */

#ifndef CACTID_ARRAY_BANK_HH
#define CACTID_ARRAY_BANK_HH

#include "array/mat.hh"
#include "array/partition.hh"
#include "tech/technology.hh"
#include "tech/wire.hh"

namespace cactid {

/** Specification of one bank to be built. */
struct BankSpec {
    double sizeBits = 0.0;  ///< storage bits in the bank
    int outputBits = 0;     ///< bits delivered per access (or prefetch
                            ///< width for main-memory style)
    RamCellTech tech = RamCellTech::Sram;
    double repeaterDerate = 1.0; ///< max_repeater_delay constraint
    bool sleepTransistors = false; ///< halve leakage of inactive mats
    bool mainMemoryStyle = false;  ///< DDR-style operation and timing
    int pageBits = 0;       ///< page size in bits (main-memory style)
    double ioDelay = 0.0;   ///< fixed interface delay added to CAS (s)
    double ioEnergyPerBit = 0.0; ///< off-chip driver energy (J/bit)
    int maxPipelineStages = 6;   ///< pipeline depth limit (paper 4.1)
    int ports = 1;               ///< total ports (SRAM only)
};

/** Everything the optimizer needs to know about one built bank. */
struct BankMetrics {
    Partition part;
    int nMats = 0;
    int gridX = 0;
    int gridY = 0;
    int nActiveMats = 0;

    double width = 0.0;          ///< m
    double height = 0.0;         ///< m
    double area = 0.0;           ///< m^2
    double areaEfficiency = 0.0; ///< cell area / total area

    double accessTime = 0.0;      ///< s
    double randomCycle = 0.0;     ///< s
    double interleaveCycle = 0.0; ///< multisubbank interleave cycle (s)

    // Main-memory style timing interface (zero unless requested).
    double tRcd = 0.0;
    double tCas = 0.0;
    double tRp = 0.0;
    double tRas = 0.0;
    double tRc = 0.0;
    double tRrd = 0.0;

    // SRAM-like interface energies (per full access).
    double readEnergy = 0.0;  ///< J
    double writeEnergy = 0.0; ///< J

    // Main-memory style command energies.
    double activateEnergy = 0.0; ///< incl. precharge (paper Table 2)
    double readBurstEnergy = 0.0;
    double writeBurstEnergy = 0.0;

    double leakage = 0.0;      ///< W
    double refreshPower = 0.0; ///< W

    bool feasible = false;

    /** Field for field, == on every double. */
    bool operator==(const BankMetrics &) const = default;
};

/**
 * Builds the banks of one spec, one candidate partition at a time.
 * The parts no candidate changes are made once: the H-tree's repeated
 * wire and the mat output driver at construction, and the mat row
 * path and DRAM column decoder on first use (MatCircuits).  Every
 * bank, one-shot or not, is built here, so a memoized part is the
 * very value a fresh build computes.  Not thread-safe: one builder
 * per solve.
 */
class BankBuilder
{
  public:
    BankBuilder(const Technology &t, const BankSpec &spec);

    /** Build and evaluate the bank of @p part. */
    BankMetrics build(const Partition &part);

    const BankSpec &spec() const { return spec_; }

  private:
    const Technology &t_;
    BankSpec spec_;
    MatCircuits mats_;
    RepeatedWire htreeWire_;
};

/** Build and evaluate one bank for one candidate partition. */
BankMetrics buildBank(const Technology &t, const BankSpec &spec,
                      const Partition &part);

} // namespace cactid

#endif // CACTID_ARRAY_BANK_HH
