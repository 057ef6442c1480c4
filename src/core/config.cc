/**
 * @file
 * MemoryConfig helpers.
 */

#include "core/config.hh"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace cactid {

int
MemoryConfig::dataOutputBits() const
{
    const int block_bits = blockBytes * 8;
    switch (type) {
      case MemoryType::PlainRam:
        return block_bits;
      case MemoryType::Cache:
        // Normal access fetches every way to the edge and late-selects
        // there; Fast applies the way select at the sense-amp mux so
        // only the chosen way is driven out; Sequential touches only
        // the matching way after the tag lookup.
        return accessMode == AccessMode::Normal
                   ? block_bits * associativity
                   : block_bits;
      case MemoryType::MainMemoryChip:
        return ioBits * prefetchWidth;
    }
    throw std::logic_error("unknown MemoryType");
}

double
MemoryConfig::bankBits() const
{
    return capacityBytes * 8.0 / nBanks;
}

void
MemoryConfig::validate() const
{
    auto require = [](bool ok, const char *msg) {
        if (!ok)
            throw std::invalid_argument(msg);
    };
    require(capacityBytes > 0, "capacity must be positive");
    require(blockBytes > 0 && (blockBytes & (blockBytes - 1)) == 0,
            "block size must be a power of two");
    require(nBanks > 0 && (nBanks & (nBanks - 1)) == 0,
            "bank count must be a power of two");
    require(associativity >= 1, "associativity must be >= 1");
    require(ports >= 1, "ports must be >= 1");
    require(ports == 1 || dataCellTech == RamCellTech::Sram,
            "only SRAM memories can be multi-ported");
    require(maxAreaConstraint >= 0.0, "max area constraint negative");
    require(maxAccTimeConstraint >= 0.0, "max acctime constraint negative");
    require(repeaterDerate >= 1.0, "repeater derate must be >= 1");
    // A non-finite weight makes every objective nan or inf, so no
    // solution would ever compare best.
    const OptimizationWeights &w = weights;
    require(std::isfinite(w.dynamicEnergy) && std::isfinite(w.leakage) &&
                std::isfinite(w.randomCycle) &&
                std::isfinite(w.interleaveCycle) &&
                std::isfinite(w.accessTime) && std::isfinite(w.area),
            "objective weights must be finite");
    if (type == MemoryType::MainMemoryChip) {
        require(isDram(dataCellTech),
                "main memory chips must use a DRAM cell technology");
        require(pageBytes * 8 >= ioBits * prefetchWidth,
                "page smaller than the internal prefetch");
        require(burstLength > 0 && prefetchWidth > 0 && ioBits > 0,
                "bad interface widths");
    }
    const double bank_bits = bankBits();
    require(bank_bits >= 8.0 * blockBytes,
            "bank smaller than one block");
    require(std::abs(bank_bits - std::round(bank_bits)) < 1e-9,
            "bank capacity must be an integral number of bits");
}

std::string
MemoryConfig::summary() const
{
    std::ostringstream os;
    const double mb = capacityBytes / (1024.0 * 1024.0);
    os << mb << "MB " << toString(dataCellTech) << " ";
    switch (type) {
      case MemoryType::PlainRam: os << "RAM"; break;
      case MemoryType::Cache:
        os << associativity << "-way cache";
        break;
      case MemoryType::MainMemoryChip: os << "DRAM chip"; break;
    }
    os << ", " << nBanks << " banks @ " << featureNm << "nm";
    return os.str();
}

} // namespace cactid
