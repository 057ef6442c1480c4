/**
 * @file
 * H-tree implementation.
 *
 * The representative route spans half the bank width plus half the bank
 * height (port at the edge center, target mat in the middle of its
 * quadrant).  The address network is a broadcast tree whose total wire
 * length is approximately twice the bank half-perimeter per level-one
 * branch; we charge a 2x broadcast surcharge on the representative
 * route, matching CACTI's tree accounting to first order.
 */

#include "array/htree.hh"

namespace cactid {

namespace {

constexpr double kBroadcastSurcharge = 2.0;

} // namespace

HTree::HTree(const Technology &t, DeviceKind dev, double bank_w,
             double bank_h, int addr_bits, int data_bits, double derate)
    : HTree(RepeatedWire(t.wire(WirePlane::SemiGlobal), t.device(dev),
                         derate),
            bank_w, bank_h, addr_bits, data_bits)
{
}

HTree::HTree(const RepeatedWire &rep, double bank_w, double bank_h,
             int addr_bits, int data_bits)
{
    routeLength_ = (bank_w + bank_h) / 2.0;
    addrDelay_ = rep.delayPerM() * routeLength_;
    dataDelay_ = rep.delayPerM() * routeLength_;

    addrEnergy_ = addr_bits * rep.energyPerM() * routeLength_ *
                  kBroadcastSurcharge * 0.5; // ~half the bits toggle
    dataEnergyPerBit_ = rep.energyPerM() * routeLength_ * 0.5;

    const double total_wire =
        addr_bits * routeLength_ * kBroadcastSurcharge +
        data_bits * routeLength_;
    leakage_ = rep.leakagePerM() * total_wire;
}

} // namespace cactid
