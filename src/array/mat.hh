/**
 * @file
 * The mat: one subarray with its row decoder, sense amplifiers, column
 * mux and output drivers.  The mat is the unit from which banks are
 * tiled and the place where the SRAM/DRAM circuit differences (paper
 * section 2.3) are expressed.
 */

#ifndef CACTID_ARRAY_MAT_HH
#define CACTID_ARRAY_MAT_HH

#include <cstdint>
#include <unordered_map>

#include "array/partition.hh"
#include "array/subarray.hh"
#include "circuit/bitline.hh"
#include "circuit/decoder.hh"
#include "circuit/driver.hh"
#include "circuit/senseamp.hh"
#include "tech/technology.hh"

namespace cactid {

/**
 * The circuits of a mat that depend on less than its whole partition.
 * A MatCircuits memo makes each once per spec and lends it to every
 * candidate that needs it.
 */
struct MatParts {
    const CellParams &cell;          ///< the port-adjusted cell
    const Subarray &subarray;        ///< rows x cols cell matrix
    const Decoder &rowDecoder;       ///< drives the subarray's wordlines
    const DriverChain &outputDriver; ///< ends every column path
    const Decoder *columnDecoder;    ///< DRAM CSL decoder, else nullptr
};

/**
 * The mat circuits of one (technology, cell, ports) spec, each built
 * on first use and kept for the memo's lifetime: the subarray and row
 * decoder per exact rows x cols (tag arrays have columns that are not
 * powers of two), the DRAM column decoder per cols, and the output
 * driver once.  parts() returns views that stay valid while the memo
 * lives.  Not thread-safe: give each thread its own.
 */
class MatCircuits
{
  public:
    MatCircuits(const Technology &t, RamCellTech tech, int ports);

    /** The circuits of a rows x cols mat. */
    MatParts parts(int rows, int cols);

  private:
    struct RowPath {
        Subarray subarray;
        Decoder decoder;
    };

    const Technology &t_;
    CellParams cell_;
    DriverChain outputDriver_;
    std::unordered_map<std::uint64_t, RowPath> rowPaths_;
    std::unordered_map<int, Decoder> columnDecoders_;
};

/** Area, delay and energy model of one mat. */
class Mat
{
  public:
    /**
     * @param t     technology
     * @param tech  cell technology
     * @param part  array partition
     * @param ports total ports (> 1 replicates the row/column
     *              periphery and grows the cell; SRAM only)
     */
    Mat(const Technology &t, RamCellTech tech, const Partition &part,
        int ports = 1);

    /**
     * Build from circuits made elsewhere (a MatCircuits memo of the
     * same technology, cell and @p ports).
     */
    Mat(const Technology &t, const Partition &part, const MatParts &parts,
        int ports);

    // --- Geometry -------------------------------------------------
    double width() const { return width_; }
    double height() const { return height_; }
    double area() const { return width_ * height_; }
    double cellArea() const { return subarray_.cellArea(); }

    // --- Timing ---------------------------------------------------
    /** Address-at-mat to wordline-asserted (predecode + decode + WL). */
    double decodeDelay() const { return decodeDelay_; }
    /** Wordline-on to sense-margin developed. */
    double bitlineDelay() const { return bitline_.develDelay; }
    /** Sense amplification to full rail. */
    double senseDelay() const { return senseDelay_; }
    /** Column mux + output driver to the mat edge. */
    double outputDelay() const { return outputDelay_; }
    /** Total address-at-mat to data-at-mat-edge delay. */
    double accessDelay() const;
    /** DRAM writeback (cell restore) time; 0 for SRAM. */
    double writebackDelay() const { return bitline_.writebackDelay; }
    /** Bitline precharge/equalize time. */
    double prechargeDelay() const { return bitline_.prechargeDelay; }
    /** Back-to-back access (random cycle) time of this mat. */
    double cycleTime() const;

    // --- Energy (per access touching this mat) ---------------------
    /**
     * Row-open energy: decode, wordline, every bitline of the row, and
     * (for DRAM) all page sense amps and the destructive-readout cell
     * restore.  For SRAM this is the energy of one read access before
     * column selection.
     */
    double activateEnergy() const { return activateEnergy_; }
    /** Column phase: mux + output drive of this mat's share of bits. */
    double readColumnEnergy() const { return readColumnEnergy_; }
    /** Extra energy of a write relative to a read. */
    double writeExtraEnergy() const { return writeExtraEnergy_; }
    /** Energy to refresh one row of this mat (DRAM). */
    double refreshRowEnergy() const { return refreshRowEnergy_; }

    // --- Static power ----------------------------------------------
    /** Peripheral (decoder/SA/driver) leakage of this mat (W). */
    double leakage() const { return leakage_; }
    /** Storage cell leakage of this mat (W); nonzero only for SRAM. */
    double cellLeakage() const { return cellLeakage_; }

    /** Sense amplifiers in this mat. */
    int senseAmps() const { return senseAmps_; }

    const Subarray &subarray() const { return subarray_; }
    const BitlineModel &bitline() const { return bitline_; }

    /** True if the partition is electrically feasible. */
    bool feasible() const { return bitline_.feasible; }

  private:
    Partition part_;
    Subarray subarray_;
    BitlineModel bitline_;
    int senseAmps_ = 0;
    double width_ = 0.0;
    double height_ = 0.0;
    double decodeDelay_ = 0.0;
    double senseDelay_ = 0.0;
    double outputDelay_ = 0.0;
    double activateEnergy_ = 0.0;
    double readColumnEnergy_ = 0.0;
    double writeExtraEnergy_ = 0.0;
    double refreshRowEnergy_ = 0.0;
    double colDecodeEnergy_ = 0.0;
    double colDecodeLeakage_ = 0.0;
    double leakagePortFactor_ = 1.0;
    double leakage_ = 0.0;
    double cellLeakage_ = 0.0;
};

} // namespace cactid

#endif // CACTID_ARRAY_MAT_HH
