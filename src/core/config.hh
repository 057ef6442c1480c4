/**
 * @file
 * User-facing input specification for CACTI-D.
 */

#ifndef CACTID_CORE_CONFIG_HH
#define CACTID_CORE_CONFIG_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "tech/cell.hh"

namespace cactid {

/**
 * No organization of a configuration is feasible.  It is the input's
 * fault, like a malformed config: the tools exit 2, not 3.
 */
class InfeasibleConfig : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** What kind of memory structure is being modeled. */
enum class MemoryType : std::uint8_t {
    PlainRam,       ///< scratchpad / tagless memory
    Cache,          ///< tag + data arrays
    MainMemoryChip, ///< commodity DRAM part on a DIMM (section 2.1)
};

/** Cache access modes (tag/data sequencing). */
enum class AccessMode : std::uint8_t {
    Normal,     ///< tag and data in parallel, late way select
    Sequential, ///< data only after tag match (saves data-array energy)
    Fast,       ///< all ways shipped out, selected at the edge
};

/**
 * Weights of the optimization function applied after the max-area and
 * max-access-time filters (paper section 2.4).  Each metric enters the
 * objective normalized to the best value among the surviving solutions.
 */
struct OptimizationWeights {
    double dynamicEnergy = 1.0;
    double leakage = 1.0;
    double randomCycle = 1.0;
    double interleaveCycle = 1.0;
    double accessTime = 0.0;
    double area = 0.0;
};

/** Complete input specification. */
struct MemoryConfig {
    // --- What to build.
    double capacityBytes = 0.0; ///< total capacity over all banks
    int blockBytes = 64;        ///< line size / access granularity
    int associativity = 1;      ///< ways (Cache only)
    int nBanks = 1;             ///< independently addressed banks
    MemoryType type = MemoryType::PlainRam;
    AccessMode accessMode = AccessMode::Normal;
    int physicalAddressBits = 40; ///< for tag sizing
    int ports = 1;              ///< total access ports (SRAM only)

    // --- Technology.
    bool includeEcc = false;    ///< store 8 SECDED check bits per 64
    double featureNm = 32.0;
    double temperatureK = 350.0;
    RamCellTech dataCellTech = RamCellTech::Sram;
    RamCellTech tagCellTech = RamCellTech::Sram;
    bool sleepTransistors = false;

    // --- Optimization controls (section 2.4).
    double maxAreaConstraint = 0.40;    ///< within 40% of best-area
    double maxAccTimeConstraint = 0.10; ///< within 10% of best-acctime
    double repeaterDerate = 1.0;        ///< max_repeater_delay constraint
    OptimizationWeights weights;

    // --- Main-memory chip organization (section 2.1).
    int ioBits = 8;        ///< data pins (x4 / x8 / x16)
    int burstLength = 8;   ///< bits per pin per READ/WRITE command
    int prefetchWidth = 8; ///< internal prefetch per pin
    int pageBytes = 1024;  ///< DRAM page (row) size
    double ioDelay = 8e-9; ///< interface pipeline: command registration,
                           ///< column redundancy, I/O gating, DLL, serializer
    double ioEnergyPerBit = 18e-12; ///< off-chip signalling energy (SSTL
                                    ///< driver + termination)

    /** Bits delivered by one data-array access. */
    int dataOutputBits() const;

    /** Storage bits per data bank. */
    double bankBits() const;

    /** Validate and throw std::invalid_argument on nonsense input. */
    void validate() const;

    /** One-line description for reports. */
    std::string summary() const;
};

} // namespace cactid

#endif // CACTID_CORE_CONFIG_HH
