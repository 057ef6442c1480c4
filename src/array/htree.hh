/**
 * @file
 * H-tree distribution networks: repeated semi-global wires carrying the
 * address into the bank and the data to/from the active mats.
 */

#ifndef CACTID_ARRAY_HTREE_HH
#define CACTID_ARRAY_HTREE_HH

#include "tech/technology.hh"
#include "tech/wire.hh"

namespace cactid {

/** Address + data H-trees of one bank. */
class HTree
{
  public:
    /**
     * @param t          technology
     * @param dev        repeater device flavour
     * @param bank_w     bank width (m)
     * @param bank_h     bank height (m)
     * @param addr_bits  address (+control) bits broadcast inward
     * @param data_bits  data bits routed to/from the active mats
     * @param derate     repeater delay derating (max_repeater_delay
     *                   constraint, >= 1.0)
     */
    HTree(const Technology &t, DeviceKind dev, double bank_w,
          double bank_h, int addr_bits, int data_bits,
          double derate = 1.0);

    /**
     * Route over @p rep, the semi-global repeated wire the constructor
     * above would size (a BankBuilder sizes it once per spec).
     */
    HTree(const RepeatedWire &rep, double bank_w, double bank_h,
          int addr_bits, int data_bits);

    /** Address propagation delay from the bank port to a mat (s). */
    double addrDelay() const { return addrDelay_; }

    /** Data propagation delay from a mat to the bank port (s). */
    double dataDelay() const { return dataDelay_; }

    /** Address-network energy per access (J). */
    double addrEnergy() const { return addrEnergy_; }

    /** Data-network energy per access per data bit (J). */
    double dataEnergyPerBit() const { return dataEnergyPerBit_; }

    /** Repeater leakage of both networks (W). */
    double leakage() const { return leakage_; }

    /** Representative mat-to-port route length (m). */
    double routeLength() const { return routeLength_; }

  private:
    double addrDelay_ = 0.0;
    double dataDelay_ = 0.0;
    double addrEnergy_ = 0.0;
    double dataEnergyPerBit_ = 0.0;
    double leakage_ = 0.0;
    double routeLength_ = 0.0;
};

} // namespace cactid

#endif // CACTID_ARRAY_HTREE_HH
