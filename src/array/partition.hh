/**
 * @file
 * Array partition parameters and their enumeration.
 *
 * A bank of `size` bits is tiled into identical subarrays of
 * rowsPerSubarray x colsPerSubarray cells.  Column multiplexing happens
 * in two places: `blMux` bitlines share one sense amplifier (before
 * sensing; SRAM only -- DRAM senses every column of the open page), and
 * `samMux` sense-amplifier outputs share one output line (after
 * sensing).  These correspond to CACTI's Ndwl/Ndbl/deg-bitline-muxing/
 * Ndsam degrees of freedom.
 */

#ifndef CACTID_ARRAY_PARTITION_HH
#define CACTID_ARRAY_PARTITION_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "tech/cell.hh"

namespace cactid {

/** One point in the array organization space. */
struct Partition {
    int rowsPerSubarray = 0; ///< wordlines per subarray (power of two)
    int colsPerSubarray = 0; ///< cells per wordline (power of two)
    int blMux = 1;           ///< bitlines per sense amp (pre-sensing mux)
    int samMux = 1;          ///< SA outputs per data line (post-sensing)

    /** Bits a single mat contributes to one access. */
    int
    bitsPerMatAccess() const
    {
        return colsPerSubarray / (blMux * samMux);
    }

    bool operator==(const Partition &) const = default;
};

/** Limits for the partition enumeration. */
struct PartitionLimits {
    int minRows = 16;
    int maxRows = 8192;
    int minCols = 32;
    int maxCols = 16384;
    int maxBlMux = 16;
    int maxSamMux = 64;
};

/** Callback receiving each structurally valid partition in turn. */
using PartitionVisitor = std::function<void(const Partition &)>;

/**
 * Visit all structurally valid partitions of a bank in a fixed,
 * deterministic order (rows, then cols, then blMux, then samMux, each
 * ascending).  Candidates stream to @p visit one at a time, so callers
 * can evaluate or prune them without materializing the whole space.
 *
 * @param size_bits   bits stored in the bank
 * @param output_bits bits delivered per access
 * @param tech        cell technology (DRAM forces blMux == 1: the whole
 *                    page is sensed)
 * @param limits      enumeration bounds
 * @param visit       called once per valid partition
 */
void forEachPartition(double size_bits, int output_bits,
                      RamCellTech tech, const PartitionLimits &limits,
                      const PartitionVisitor &visit);

/** Convenience wrapper: collect the forEachPartition stream. */
std::vector<Partition> enumeratePartitions(double size_bits,
                                           int output_bits,
                                           RamCellTech tech,
                                           const PartitionLimits &limits);

} // namespace cactid

#endif // CACTID_ARRAY_PARTITION_HH
