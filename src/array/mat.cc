/**
 * @file
 * Mat model implementation.
 */

#include "array/mat.hh"

#include <cmath>

#include "circuit/gate_area.hh"
#include "circuit/logic_gate.hh"

namespace cactid {

namespace {

/** Width of the column pass gates and select devices (m). */
double
passWidth(const Technology &t)
{
    return 2.0 * t.minWidth();
}

/** Predecode + row decode + wordline driver of @p sub. */
Decoder
rowDecoder(const Technology &t, const CellParams &cell, const Subarray &sub)
{
    return Decoder(t, cell.peripheralDevice, sub.rows(), sub.cWordline(),
                   sub.rWordline(), cell.height, cell.vpp);
}

/**
 * DRAM pages are wide: the column address is decoded and the selected
 * CSL driven across the whole matrix width, a significant part of the
 * CAS latency.
 */
Decoder
columnDecoder(const Technology &t, const CellParams &cell,
              const Subarray &sub)
{
    const DeviceParams &pd = t.device(cell.peripheralDevice);
    const WireParams &lwire = t.wire(WirePlane::Local);
    const double csl_len = sub.matrixWidth();
    const int n_csl = std::max(4, sub.cols() / 16);
    return Decoder(t, cell.peripheralDevice, n_csl,
                   lwire.capPerM * csl_len + 16.0 * pd.cGate * passWidth(t),
                   lwire.resPerM * csl_len, 16.0 * cell.width);
}

} // namespace

MatCircuits::MatCircuits(const Technology &t, RamCellTech tech, int ports)
    : t_(t),
      cell_(applyPorts(t.cell(tech), t.wire(WirePlane::Local).pitch, ports)),
      outputDriver_(sizeDriverChain(
          t, cell_.peripheralDevice,
          40.0 * t.device(cell_.peripheralDevice).cGate * t.minWidth(), 0.0,
          0.0, Edge{}))
{
}

MatParts
MatCircuits::parts(int rows, int cols)
{
    const std::uint64_t key =
        std::uint64_t(std::uint32_t(rows)) << 32 | std::uint32_t(cols);
    auto row = rowPaths_.find(key);
    if (row == rowPaths_.end()) {
        const Subarray sub(t_, cell_, rows, cols);
        row = rowPaths_.emplace(key, RowPath{sub, rowDecoder(t_, cell_, sub)})
                  .first;
    }
    const Decoder *col = nullptr;
    if (isDram(cell_.tech)) {
        auto it = columnDecoders_.find(cols);
        if (it == columnDecoders_.end())
            it = columnDecoders_
                     .emplace(cols, columnDecoder(t_, cell_,
                                                  row->second.subarray))
                     .first;
        col = &it->second;
    }
    return {cell_, row->second.subarray, row->second.decoder, outputDriver_,
            col};
}

Mat::Mat(const Technology &t, RamCellTech tech, const Partition &part,
         int ports)
    : Mat(t, part,
          MatCircuits(t, tech, ports)
              .parts(part.rowsPerSubarray, part.colsPerSubarray),
          ports)
{
}

Mat::Mat(const Technology &t, const Partition &part, const MatParts &parts,
         int ports)
    : part_(part), subarray_(parts.subarray),
      bitline_(makeBitline(t, parts.cell, part.rowsPerSubarray))
{
    const CellParams &cell = parts.cell;
    const RamCellTech tech = cell.tech;
    const DeviceKind periph = cell.peripheralDevice;
    const DeviceParams &pd = t.device(periph);
    const int rows = part.rowsPerSubarray;
    const int cols = part.colsPerSubarray;

    // DRAM senses every column of the open page; SRAM muxes blMux
    // columns into one amp before sensing.
    senseAmps_ = isDram(tech) ? cols : cols / part.blMux;
    const SenseAmp sa(t, periph, cell.width * part.blMux);

    // --- Row path: predecode + row decode + wordline.
    const Decoder &decoder = parts.rowDecoder;
    decodeDelay_ = decoder.delay(Edge{}).delay;

    // --- Sensing.
    senseDelay_ = sa.delay(t, bitline_.senseMargin);

    // --- Column path: pass-gate mux after the sense amps followed by an
    // output driver onto the H-tree stub at the mat edge.
    const double w_pass = passWidth(t);
    const double r_pass = pd.rNchOn() / w_pass;
    const double c_mux_line =
        part.samMux * pd.cJunction * w_pass + 4e-15;
    const DriverChain &out_drv = parts.outputDriver;
    Edge e = stageDelay(Edge{}, r_pass * (c_mux_line + out_drv.inputCap));
    outputDelay_ = e.delay + (out_drv.out.delay);
    // Column-select path: the DRAM column decoder, or for SRAM a
    // single gate overlapped with the row path.
    if (isDram(tech)) {
        const Decoder &col_dec = *parts.columnDecoder;
        outputDelay_ += col_dec.delay(Edge{}).delay;
        colDecodeEnergy_ = col_dec.energyPerAccess();
        colDecodeLeakage_ = col_dec.leakage();
    } else if (part.samMux > 1) {
        const LogicGate sel(GateType::Nand2, periph, w_pass);
        outputDelay_ += stageDelay(Edge{}, sel.resistance(t) *
                                   (sel.outputCap(t) + pd.cGate * w_pass))
                            .delay;
    }

    // --- Geometry: decoder strip beside the matrix, SA/mux strip below.
    // Adjacent mats share one row-decode strip (drivers alternate
    // left/right), halving the per-mat strip cost.
    const double decoder_strip_w =
        0.5 * decoder.area() / std::max(subarray_.matrixHeight(), 1e-9);
    width_ = subarray_.matrixWidth() + decoder_strip_w;
    const double sa_strip_h =
        senseAmps_ * sa.area() / std::max(subarray_.matrixWidth(), 1e-9);
    height_ = subarray_.matrixHeight() + subarray_.stripHeight() +
              sa_strip_h;

    // --- Energy.
    const int bits_out = part.bitsPerMatAccess();
    activateEnergy_ = decoder.energyPerAccess();
    if (isDram(tech)) {
        // The boosted wordline is charged from the VPP charge pump,
        // whose conversion efficiency is ~40%: the supply pays ~2.5x
        // the delivered C*VPP^2.
        constexpr double kPumpOverhead = 2.5;
        activateEnergy_ += (kPumpOverhead - 1.0) * subarray_.cWordline() *
                           cell.vpp * cell.vpp;
    }
    if (isDram(tech)) {
        // Whole page: every bitline swings and every amp fires; half of
        // the cells (on average) need their level restored.
        activateEnergy_ += cols * bitline_.readEnergy;
        activateEnergy_ += cols * sa.energy(t);
        activateEnergy_ += 0.5 * cols * bitline_.cellRestoreEnergy;
    } else {
        // All bitlines of the row develop swing; one amp per mux group.
        activateEnergy_ += cols * bitline_.readEnergy;
        activateEnergy_ += senseAmps_ * sa.energy(t);
    }
    readColumnEnergy_ =
        bits_out * (out_drv.energy + c_mux_line * pd.vdd * pd.vdd) +
        colDecodeEnergy_;
    if (isDram(tech)) {
        // Writes drive the local IO lines against the sense amps and
        // flip the selected latches; writeback itself is part of the
        // activate/restore energy above.
        writeExtraEnergy_ =
            bits_out * (sa.energy(t) + 2.0 * out_drv.energy);
    } else {
        writeExtraEnergy_ =
            bits_out * (bitline_.writeEnergy - bitline_.readEnergy);
    }
    // Internal refresh sequencing skips the command/column/IO paths
    // and staggers activation, so it is cheaper than an external
    // ACTIVATE of the same row.
    constexpr double kRefreshEfficiency = 0.6;
    refreshRowEnergy_ = kRefreshEfficiency *
                        (decoder.energyPerAccess() +
                         cols * (bitline_.readEnergy + sa.energy(t)) +
                         0.5 * cols * bitline_.cellRestoreEnergy);

    // Multi-porting replicates the row decoders and the column
    // periphery once per port.
    if (ports > 1) {
        const double rep = double(ports);
        width_ += (rep - 1.0) * decoder_strip_w;
        height_ += (rep - 1.0) * sa_strip_h;
        leakagePortFactor_ = rep;
    }

    // --- Static power.  DRAM sense-amp latches are disconnected from
    // the rails while the bitlines are precharged, so they contribute
    // almost no standby leakage (only the isolation devices).
    const double sa_leak_factor = isDram(tech) ? 0.05 : 1.0;
    // DRAM row paths use negative-wordline biasing with high-Vth
    // drivers (the wordline must stay hard off to meet retention), an
    // order-of-magnitude leakage reduction over plain logic drivers.
    const double row_leak_factor = isDram(tech) ? 0.15 : 1.0;
    leakage_ = leakagePortFactor_ *
               (row_leak_factor * decoder.leakage() +
                sa_leak_factor * senseAmps_ * sa.leakage(t) +
                bits_out * out_drv.leakage + colDecodeLeakage_);
    if (tech == RamCellTech::Sram) {
        cellLeakage_ = double(rows) * cols * cell.iCellLeak300 *
                       t.leakageDerate() * cell.vddCell;
    }
}

double
Mat::accessDelay() const
{
    return decodeDelay_ + bitlineDelay() + senseDelay_ + outputDelay_;
}

double
Mat::cycleTime() const
{
    // Random cycle: the row must be opened, sensed, (restored for DRAM,
    // whose readout is destructive) and the bitlines precharged before
    // the next row can be opened (paper section 2.3.2).
    return decodeDelay_ + bitlineDelay() + senseDelay_ +
           writebackDelay() + prechargeDelay();
}

} // namespace cactid
