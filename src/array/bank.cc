/**
 * @file
 * Bank roll-up implementation.
 */

#include "array/bank.hh"

#include <cmath>

#include "array/htree.hh"

namespace cactid {

namespace {

/** Inter-mat routing channel overhead on the bank footprint. */
constexpr double kRoutingOverhead = 1.05;

/** Pipeline latch floor for the interleave cycle, in device FO4s. */
constexpr double kMinCycleFo4 = 14.0;

/** tRRD as a fraction of tRC (peak-current / charge-pump limit). */
constexpr double kTrrdFraction = 0.15;

double
fo4Delay(const Technology &t, DeviceKind dev)
{
    const DeviceParams &d = t.device(dev);
    return 0.69 * d.rNchOn() * (d.cJunction + 4.0 * d.cGate);
}

} // namespace

BankBuilder::BankBuilder(const Technology &t, const BankSpec &spec)
    : t_(t), spec_(spec), mats_(t, spec.tech, spec.ports),
      htreeWire_(t.wire(WirePlane::SemiGlobal),
                 t.device(t.cell(spec.tech).peripheralDevice),
                 spec.repeaterDerate)
{
}

BankMetrics
buildBank(const Technology &t, const BankSpec &spec, const Partition &part)
{
    return BankBuilder(t, spec).build(part);
}

BankMetrics
BankBuilder::build(const Partition &part)
{
    const Technology &t = t_;
    const BankSpec &spec = spec_;
    BankMetrics m;
    m.part = part;

    const CellParams &cell = t.cell(spec.tech);
    const DeviceKind periph = cell.peripheralDevice;
    const Mat mat(t, part,
                  mats_.parts(part.rowsPerSubarray, part.colsPerSubarray),
                  spec.ports);

    const double subarray_bits =
        double(part.rowsPerSubarray) * part.colsPerSubarray;
    m.nMats = static_cast<int>(std::llround(spec.sizeBits / subarray_bits));
    if (m.nMats < 1 || !mat.feasible())
        return m;

    // Near-square grid: the largest divisor pair of nMats.
    int gy = static_cast<int>(std::sqrt(double(m.nMats)));
    while (gy > 1 && m.nMats % gy != 0)
        --gy;
    m.gridY = gy;
    m.gridX = m.nMats / gy;

    const int per_mat = part.bitsPerMatAccess();
    m.nActiveMats = (spec.outputBits + per_mat - 1) / per_mat;
    if (m.nActiveMats > m.nMats)
        return m;

    // Main-memory style: the page-size constraint fixes the number of
    // sense amplifiers activated per ACTIVATE (paper section 2.1).
    int mats_per_activate = m.nActiveMats;
    if (spec.mainMemoryStyle) {
        if (spec.pageBits <= 0 ||
            spec.pageBits % part.colsPerSubarray != 0)
            return m;
        mats_per_activate = spec.pageBits / part.colsPerSubarray;
        if (mats_per_activate > m.nMats)
            return m;
        // The read bits must come out of the open page.
        if (spec.outputBits >
            mats_per_activate * (part.colsPerSubarray / part.samMux))
            return m;
    }

    // --- Geometry.
    m.width = m.gridX * mat.width() * kRoutingOverhead;
    m.height = m.gridY * mat.height() * kRoutingOverhead;
    m.area = m.width * m.height;
    m.areaEfficiency = m.nMats * mat.cellArea() / m.area;

    // --- H-trees.
    const int addr_bits =
        static_cast<int>(
            std::ceil(std::log2(spec.sizeBits / spec.outputBits))) +
        4 /* control */;
    const HTree htree(htreeWire_, m.width, m.height, addr_bits,
                      spec.outputBits);

    // --- Timing (SRAM-like interface).
    m.accessTime =
        htree.addrDelay() + mat.accessDelay() + htree.dataDelay();
    m.randomCycle = mat.cycleTime();

    const double floor_cycle = kMinCycleFo4 * fo4Delay(t, periph);
    const double shared_path = htree.addrDelay() + htree.dataDelay() +
                               mat.outputDelay();
    m.interleaveCycle = std::max(
        floor_cycle, shared_path / std::max(1, spec.maxPipelineStages));

    // --- Energy (SRAM-like interface: every access opens and closes the
    // target row, so DRAM pays activate + restore on each access).
    const double data_htree_energy =
        spec.outputBits * htree.dataEnergyPerBit();
    m.readEnergy = htree.addrEnergy() + data_htree_energy +
                   m.nActiveMats *
                       (mat.activateEnergy() + mat.readColumnEnergy());
    m.writeEnergy = m.readEnergy + m.nActiveMats * mat.writeExtraEnergy();

    // --- Main-memory style interface.  Datasheet timing carries a
    // guardband over typical silicon (process corners, temperature,
    // weak cells); kTimingMargin models that spec margin.
    if (spec.mainMemoryStyle) {
        constexpr double kTimingMargin = 1.45;
        m.tRcd = kTimingMargin *
                 (htree.addrDelay() + mat.decodeDelay() +
                  mat.bitlineDelay() + mat.senseDelay());
        m.tCas = htree.addrDelay() + mat.outputDelay() +
                 htree.dataDelay() + spec.ioDelay;
        // PRECHARGE travels the same control path as ACTIVATE to lower
        // the wordline before the equalizers fire.
        m.tRp = kTimingMargin *
                (htree.addrDelay() + mat.decodeDelay() +
                 mat.prechargeDelay());
        m.tRas = m.tRcd + kTimingMargin * mat.writebackDelay();
        m.tRc = m.tRas + m.tRp;
        m.tRrd = std::max(m.interleaveCycle, kTrrdFraction * m.tRc);

        m.activateEnergy =
            htree.addrEnergy() + mats_per_activate * mat.activateEnergy();
        const double io_energy = spec.outputBits * spec.ioEnergyPerBit;
        m.readBurstEnergy = htree.addrEnergy() + data_htree_energy +
                            mats_per_activate * mat.readColumnEnergy() *
                                double(spec.outputBits) /
                                (mats_per_activate * per_mat) +
                            io_energy;
        m.writeBurstEnergy =
            m.readBurstEnergy +
            spec.outputBits / per_mat * mat.writeExtraEnergy();
    }

    // --- Static power.
    double mat_activity = 1.0;
    if (spec.sleepTransistors) {
        // Sleep transistors halve the leakage of all mats that are not
        // activated during an access (paper section 2.5).
        mat_activity = (m.nActiveMats + 0.5 * (m.nMats - m.nActiveMats)) /
                       double(m.nMats);
    }
    m.leakage = htree.leakage() +
                mat_activity * m.nMats *
                    (mat.leakage() + mat.cellLeakage());

    if (isDram(spec.tech)) {
        const double rows_total =
            double(m.nMats) * part.rowsPerSubarray;
        m.refreshPower =
            rows_total * mat.refreshRowEnergy() / cell.retention;
    }

    m.feasible = true;
    return m;
}

} // namespace cactid
