/**
 * @file
 * The stacked last-level-cache study of paper section 3: CACTI-D
 * projections for every level of the memory hierarchy at 32 nm
 * (Table 3), assembled into the six simulated system configurations
 * (nol3, sram, lp_dram_ed, lp_dram_c, cm_dram_ed, cm_dram_c).
 */

#ifndef ARCHSIM_STUDY_HH
#define ARCHSIM_STUDY_HH

#include <ostream>
#include <string>
#include <vector>

#include "core/cacti.hh"
#include "sim/cpu/system.hh"
#include "sim/power/power.hh"
#include "sim/thermal/thermal.hh"

namespace archsim {

/** One CACTI-D-projected memory structure, quantized to CPU cycles. */
struct Projection {
    std::string name;
    cactid::Solution sol;
    std::uint64_t capacityBytes = 0;
    int assoc = 1;
    int clockDiv = 1;         ///< structure clock divider vs. 2 GHz CPU
    Cycle accessCycles = 1;
    Cycle randomCycles = 1;
    Cycle interleaveCycles = 1;
    int nSubbanks = 1;
};

/** The whole study: projections + system assembly + simulation. */
class Study
{
  public:
    /**
     * Runs all CACTI-D solves at construction (32 nm, 2 GHz), as one
     * batch on an engine with @p solver's threads and cache.
     */
    explicit Study(const cactid::SolverOptions &solver = {});

    /** Configuration names in the paper's plotting order. */
    static const std::vector<std::string> &configNames();

    /** The eight applications. */
    std::vector<WorkloadParams> workloads() const;

    const Projection &l1() const { return l1_; }
    const Projection &l2() const { return l2_; }
    /** L3 projection of a config; throws for "nol3". */
    const Projection &l3(const std::string &config) const;
    const cactid::Solution &mainMemoryChip() const { return mm_; }

    /**
     * Common capacity/footprint scale of the timing simulation (the
     * power model keeps unscaled CACTI-D energies).
     */
    static std::uint64_t simScale();

    /** Footprint-scaled copy of @p w — what run() actually simulates. */
    WorkloadParams scaledWorkload(const WorkloadParams &w) const;

    /** Simulator parameters of one configuration. */
    HierarchyParams hierarchyFor(const std::string &config) const;

    /** Power-model parameters of one configuration. */
    PowerParams powerFor(const std::string &config) const;

    /** Run one (config, workload) simulation. */
    SimStats run(const std::string &config, const WorkloadParams &w,
                 std::uint64_t inst_per_thread) const;

    /** Print Table 3 (paper values vs. this model). */
    void printTable3(std::ostream &os) const;

    /** Per-bank L3 power for the thermal study (leakage+refresh). */
    double l3BankStandbyPower(const std::string &config) const;

    /** Crossbar model metrics. */
    double xbarEnergyPerTransfer() const { return xbarEnergy_; }
    double xbarLeakage() const { return xbarLeak_; }
    Cycle xbarCycles() const { return xbarCycles_; }

  private:
    Projection quantize(const std::string &name,
                        const cactid::Solution &sol) const;

    Projection l1_, l2_;
    std::vector<Projection> l3s_; ///< sram, lp_ed, lp_c, cm_ed, cm_c
    cactid::Solution mm_;
    double xbarEnergy_ = 0.0;
    double xbarLeak_ = 0.0;
    Cycle xbarCycles_ = 2;
};

/**
 * Default per-thread instruction budget; override with the
 * ARCHSIM_INSTR environment variable, a whole decimal count >= 1.
 * @throws std::invalid_argument naming the variable and its text
 * when it is set to anything else.
 */
std::uint64_t defaultInstrPerThread();

} // namespace archsim

#endif // ARCHSIM_STUDY_HH
