/**
 * @file
 * Main-memory model: DDR channels, ranks and banks with the timing
 * interface of paper section 2.3.4 (ACTIVATE / READ / WRITE /
 * PRECHARGE, tRCD / CL / tRP / tRC / tRRD, burst transfers, multibank
 * interleaving) under an open- or closed-page policy.
 */

#ifndef ARCHSIM_DRAM_DRAM_HH
#define ARCHSIM_DRAM_DRAM_HH

#include <cstdint>
#include <vector>

#include "sim/common.hh"

namespace archsim {

struct LatencyStats;

/** Page management policy (paper section 2.3.4). */
enum class PagePolicy : std::uint8_t { Open, Closed };

/** Channel/device timing in CPU cycles (from CACTI-D, quantized). */
struct DramParams {
    int nChannels = 2;
    int banksPerChannel = 8; ///< one single-ranked DIMM per channel
    int lineBytes = 64;
    std::uint64_t pageBytes = 16384; ///< rank page (8 chips x 2KB)
    Cycle tRcd = 30;
    Cycle tCas = 30;
    Cycle tRp = 22;
    Cycle tRas = 68;
    Cycle tRrd = 12;   ///< multibank interleave limit
    Cycle tBurst = 5;  ///< 64B over the 64-bit channel
    Cycle tController = 8; ///< controller + queue pipeline
    PagePolicy policy = PagePolicy::Open;

    // --- Power-down modes (the paper's future-work suggestion): after
    // powerDownAfter idle cycles a rank drops CKE and pays
    // tPowerDownExit on the next access.
    bool powerDown = false;
    Cycle powerDownAfter = 60; ///< 30 ns idle timer at 2 GHz
    Cycle tPowerDownExit = 12;

    // --- Refresh: every tRefi cycles each rank performs an all-bank
    // refresh that closes every open row and occupies the banks for
    // tRfc.  0 disables refresh timing (the refresh *power* is always
    // accounted separately by the power model).
    Cycle tRefi = 0;
    Cycle tRfc = 0;
};

/** Command/energy counters for the power model. */
struct DramCounters {
    std::uint64_t activates = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t busBytes = 0;
    std::uint64_t powerDownEntries = 0;
    std::uint64_t powerDownCycles = 0; ///< summed over channels
    std::uint64_t refreshes = 0;       ///< all-bank refreshes issued
};

/** The two-channel main memory subsystem. */
class MemorySystem
{
  public:
    explicit MemorySystem(const DramParams &p);

    /**
     * Timed 64B line access.
     * @return total latency in CPU cycles (queue + DRAM + transfer)
     */
    Cycle access(Addr addr, bool write, Cycle now);

    /**
     * Account trailing idle time at the end of the simulation (so the
     * power-down statistics cover the whole run).
     */
    void finish(Cycle end);

    /**
     * Fraction of channel-time spent powered down over @p total cycles
     * (0 when power-down is disabled).
     */
    double poweredDownFraction(Cycle total) const;

    const DramCounters &counters() const { return counters_; }
    const DramParams &params() const { return p_; }

    /** Attach a command trace ring (simulated-cycle clock domain). */
    void setTrace(obs::TraceBuffer *trace) { trace_ = trace; }

    /**
     * Attach a latency recorder (row-hit/row-miss split of the total
     * access latency, plus the queueing component).  nullptr detaches.
     */
    void setLatency(LatencyStats *lat) { lat_ = lat; }

  private:
    struct Bank {
        Cycle readyAt = 0;      ///< earliest next ACTIVATE completion base
        std::int64_t openRow = -1;
        Cycle lastActivate = 0;
        bool everActivated = false;
    };

    struct Channel {
        std::vector<Bank> banks;
        Cycle busFree = 0;
        Cycle lastActivate = 0;
        bool everActivated = false;
        Cycle lastUse = 0;     ///< for power-down accounting
        Cycle nextRefresh = 0; ///< next refresh due time (tRefi > 0)
    };

    /** Perform every refresh due by @p t on @p ch (lazy catch-up). */
    void refreshUpTo(Channel &ch, int chIdx, Cycle t);

    DramParams p_;
    std::vector<Channel> channels_;
    DramCounters counters_;
    obs::TraceBuffer *trace_ = nullptr;
    LatencyStats *lat_ = nullptr;
};

} // namespace archsim

#endif // ARCHSIM_DRAM_DRAM_HH
