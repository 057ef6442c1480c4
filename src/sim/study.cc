/**
 * @file
 * LLC study assembly.
 */

#include "sim/study.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iterator>
#include <stdexcept>
#include <string>

#include "util/parse.hh"

namespace archsim {

namespace {

constexpr double kCpuClockHz = 2e9;
constexpr double kCpuCycleS = 1.0 / kCpuClockHz;
constexpr int kMaxPipelineStages = 6;
constexpr int kMemChipsPerRank = 8;

/**
 * Scaled simulation: the timing simulation shrinks every cache
 * capacity AND every workload footprint by this common factor, so hit
 * rates mature within tractable instruction budgets while every
 * capacity ratio (which is what determines the Figure 4/5 story) is
 * preserved.  The power model keeps the real, unscaled CACTI-D
 * energies and leakages.
 */
constexpr std::uint64_t kSimScale = 16;
constexpr int kMemRanks = 2; // one single-ranked DIMM per channel

cactid::MemoryConfig
baseCacheConfig(double capacity, int assoc, int n_banks)
{
    cactid::MemoryConfig c;
    c.capacityBytes = capacity;
    c.blockBytes = 64;
    c.associativity = assoc;
    c.nBanks = n_banks;
    c.type = cactid::MemoryType::Cache;
    c.featureNm = 32.0;
    return c;
}

} // namespace

const std::vector<std::string> &
Study::configNames()
{
    static const std::vector<std::string> names = {
        "nol3", "sram", "lp_dram_ed", "lp_dram_c",
        "cm_dram_ed", "cm_dram_c",
    };
    return names;
}

Projection
Study::quantize(const std::string &name, const cactid::Solution &sol) const
{
    Projection p;
    p.name = name;
    p.sol = sol;
    const double acc_cycles = sol.accessTime / kCpuCycleS;
    p.clockDiv = std::max(
        1, int(std::ceil(acc_cycles / kMaxPipelineStages)));
    auto quant = [&](double seconds) {
        const double cycles = seconds / kCpuCycleS;
        const auto k =
            Cycle(std::ceil(cycles / p.clockDiv)) * Cycle(p.clockDiv);
        return std::max<Cycle>(k, Cycle(p.clockDiv));
    };
    p.accessCycles = quant(sol.accessTime) + 1; // load-use / control
    p.randomCycles = quant(sol.randomCycle);
    p.interleaveCycles = quant(sol.interleaveCycle);
    p.nSubbanks = sol.nSubbanks;
    return p;
}

Study::Study(const cactid::SolverOptions &solver)
{
    using namespace cactid;

    std::vector<MemoryConfig> cfgs;

    // --- L1: 32KB 8-way private (per core, SRAM).
    {
        MemoryConfig c = baseCacheConfig(32 << 10, 8, 1);
        c.accessMode = AccessMode::Fast;
        c.sleepTransistors = true;
        c.maxAccTimeConstraint = 0.10;
        cfgs.push_back(c);
    }

    // --- L2: 1MB 8-way private (per core, SRAM).
    {
        MemoryConfig c = baseCacheConfig(1 << 20, 8, 1);
        c.accessMode = AccessMode::Fast;
        c.sleepTransistors = true;
        c.maxAccTimeConstraint = 0.15;
        cfgs.push_back(c);
    }

    // --- The five L3 options (8 banks, sequential access, stacked).
    struct L3Spec {
        const char *name;
        double capacity;
        int assoc;
        RamCellTech tech;
        bool ed; ///< config ED (energy/delay) vs config C (capacity)
    };
    const L3Spec specs[] = {
        {"sram", 24.0 * (1 << 20), 12, RamCellTech::Sram, true},
        {"lp_dram_ed", 48.0 * (1 << 20), 12, RamCellTech::LpDram, true},
        {"lp_dram_c", 72.0 * (1 << 20), 18, RamCellTech::LpDram, false},
        {"cm_dram_ed", 96.0 * (1 << 20), 12, RamCellTech::CommDram,
         true},
        {"cm_dram_c", 192.0 * (1 << 20), 24, RamCellTech::CommDram,
         false},
    };
    for (const L3Spec &spec : specs) {
        MemoryConfig c = baseCacheConfig(spec.capacity, spec.assoc, 8);
        c.accessMode = AccessMode::Sequential;
        c.dataCellTech = spec.tech;
        c.tagCellTech = spec.tech; // tags stacked in the same die/tech
        c.sleepTransistors = spec.tech == RamCellTech::Sram;
        if (spec.ed) {
            // Config ED: smaller mats with better energy and delay
            // (paper section 4.1).  The window is wide enough that the
            // energy/leakage weights pick sensible mat sizes.
            c.maxAreaConstraint = 0.60;
            c.maxAccTimeConstraint = 0.60;
            c.weights = {2.0, 2.0, 2.0, 2.0, 1.0, 0.0};
        } else {
            // Config C: capacity-optimized, density first.
            c.maxAreaConstraint = 0.15;
            c.maxAccTimeConstraint = 2.00;
            c.weights = {1.0, 2.0, 0.5, 0.5, 0.0, 2.0};
        }
        cfgs.push_back(c);
    }

    // --- Main memory: 8Gb DDR4-3200 x8 chips at 32 nm.
    {
        MemoryConfig c;
        c.capacityBytes = 8192.0 * 1024.0 * 1024.0 / 8.0; // 8 Gb
        c.blockBytes = 8;
        c.type = MemoryType::MainMemoryChip;
        c.nBanks = 8;
        c.featureNm = 32.0;
        c.dataCellTech = RamCellTech::CommDram;
        c.pageBytes = 1024;
        c.ioBits = 8;
        c.burstLength = 8;
        c.prefetchWidth = 8;
        c.maxAreaConstraint = 0.10;
        c.maxAccTimeConstraint = 1.00;
        c.weights = {1.0, 0.0, 1.0, 0.0, 0.0, 4.0};
        cfgs.push_back(c);
    }

    // One batch solves the eight configs side by side, on
    // solver.jobs threads (0: one per core).
    const std::vector<SolveResult> solved =
        SolverEngine(solver).solveBatch(cfgs);
    l1_ = quantize("L1", solved[0].best);
    l2_ = quantize("L2", solved[1].best);
    for (std::size_t i = 0; i < std::size(specs); ++i) {
        Projection p = quantize(specs[i].name, solved[2 + i].best);
        p.capacityBytes = std::uint64_t(specs[i].capacity);
        p.assoc = specs[i].assoc;
        l3s_.push_back(p);
    }
    mm_ = solved.back().best;

    // --- L2-L3 crossbar (8x8, one cache line wide), paper section 4.1.
    {
        const Technology t32(32.0);
        const Crossbar xbar(t32, 8, 512, 5.0e-3);
        xbarEnergy_ = xbar.energyPerTransfer();
        xbarLeak_ = xbar.leakage();
        xbarCycles_ = std::max<Cycle>(
            1, Cycle(std::ceil(xbar.delay() / kCpuCycleS)));
    }
}

const Projection &
Study::l3(const std::string &config) const
{
    for (const Projection &p : l3s_) {
        if (p.name == config)
            return p;
    }
    throw std::invalid_argument("no L3 projection for " + config);
}

std::vector<WorkloadParams>
Study::workloads() const
{
    return npbSuite();
}

HierarchyParams
Study::hierarchyFor(const std::string &config) const
{
    HierarchyParams hp;
    hp.l1Bytes = (32 << 10) / kSimScale;
    hp.l2Bytes = (1 << 20) / kSimScale;
    hp.l1Cycles = l1_.accessCycles;
    hp.l2Cycles = l2_.accessCycles;
    hp.xbarCycles = xbarCycles_;

    if (config != "nol3") {
        const Projection &p = l3(config);
        LlcParams lp;
        lp.capacityBytes = p.capacityBytes / kSimScale;
        lp.assoc = p.assoc;
        lp.lineBytes = 64;
        lp.nBanks = 8;
        lp.nSubbanks = std::max(1, p.nSubbanks);
        lp.accessCycles = p.accessCycles;
        lp.interleaveCycles = p.interleaveCycles;
        lp.randomCycles =
            std::min(p.randomCycles, 6 * p.interleaveCycles);
        hp.llc = lp;
    }

    // --- Main memory timing (CPU cycles at 2 GHz).
    DramParams d;
    d.nChannels = 2;
    d.banksPerChannel = 8;
    d.pageBytes = 1024 * kMemChipsPerRank; // rank page: 8 chips x 1KB
    auto cyc = [](double seconds) {
        return std::max<Cycle>(1,
                               Cycle(std::ceil(seconds / kCpuCycleS)));
    };
    d.tRcd = cyc(mm_.tRcd);
    d.tCas = cyc(mm_.tCas);
    d.tRp = cyc(mm_.tRp);
    d.tRas = cyc(mm_.tRas);
    d.tRrd = cyc(mm_.tRrd);
    d.tBurst = 5;       // 64B at DDR4-3200 over 64 bits = 2.5 ns
    d.tController = 8;
    d.policy = PagePolicy::Open;
    hp.dram = d;
    return hp;
}

PowerParams
Study::powerFor(const std::string &config) const
{
    PowerParams p;
    p.clockHz = kCpuClockHz;

    // 16 L1 instances (I+D per core), 8 L2 instances.
    p.l1.readEnergy = l1_.sol.readEnergy;
    p.l1.writeEnergy = l1_.sol.writeEnergy;
    p.l1.leakage = 16.0 * l1_.sol.leakage;
    p.l2.readEnergy = l2_.sol.readEnergy;
    p.l2.writeEnergy = l2_.sol.writeEnergy;
    p.l2.leakage = 8.0 * l2_.sol.leakage;

    if (config != "nol3") {
        const Projection &l3p = l3(config);
        p.l3.readEnergy = l3p.sol.readEnergy;
        p.l3.writeEnergy = l3p.sol.writeEnergy;
        p.l3.leakage = l3p.sol.leakage;
        p.l3.refresh = l3p.sol.refreshPower;
        p.xbarEnergyPerTransfer = xbarEnergy_;
        p.xbarLeakage = xbarLeak_;
    }

    // Rank-wide main-memory commands: 8 chips in parallel; 16 chips
    // total across the two channels.
    p.eActivate = kMemChipsPerRank * mm_.activateEnergy;
    p.eRead = kMemChipsPerRank * mm_.readBurstEnergy;
    p.eWrite = kMemChipsPerRank * mm_.writeBurstEnergy;
    p.memStandbyW =
        kMemChipsPerRank * kMemRanks * mm_.leakage;
    p.memRefreshW =
        kMemChipsPerRank * kMemRanks * mm_.refreshPower;
    return p;
}

std::uint64_t
Study::simScale()
{
    return kSimScale;
}

WorkloadParams
Study::scaledWorkload(const WorkloadParams &w) const
{
    WorkloadParams scaled = w;
    scaled.hotBytes = w.hotBytes / double(kSimScale);
    scaled.wsBytes = w.wsBytes / double(kSimScale);
    return scaled;
}

SimStats
Study::run(const std::string &config, const WorkloadParams &w,
           std::uint64_t inst_per_thread) const
{
    System sys(hierarchyFor(config), scaledWorkload(w),
               inst_per_thread);
    SimStats s = sys.run();
    s.config = config;
    return s;
}

double
Study::l3BankStandbyPower(const std::string &config) const
{
    if (config == "nol3")
        return 0.0;
    const Projection &p = l3(config);
    return (p.sol.leakage + p.sol.refreshPower) / 8.0;
}

void
Study::printTable3(std::ostream &os) const
{
    struct Row {
        const char *metric;
        double paper[8];
    };
    // Paper Table 3 columns: L1, L2, sram, lp_ed, lp_c, cm_ed, cm_c, MM.
    const Row paper_rows[] = {
        {"access (cpu cyc)", {2, 3, 5, 5, 7, 16, 21, 61}},
        {"random cycle (cyc)", {1, 1, 1, 1, 3, 5, 10, 98}},
        {"area (mm2)", {0.17, 2.0, 6.2, 5.7, 6.0, 4.8, 6.2, 115}},
        {"area efficiency (%)", {25, 67, 64, 36, 51, 30, 47, 46}},
        {"leakage (W)",
         {0.009, 0.157, 3.6, 2.0, 2.1, 0.015, 0.026, 0.091}},
        {"refresh (W)", {0, 0, 0, 0.3, 0.12, 0.00018, 0.001, 0.009}},
        {"read energy (nJ)",
         {0.07, 0.27, 0.54, 0.54, 0.59, 0.6, 0.92, 14.2}},
    };

    auto model = [&](int col, int row) -> double {
        const Projection *p = nullptr;
        if (col == 0)
            p = &l1_;
        else if (col == 1)
            p = &l2_;
        else if (col <= 6)
            p = &l3s_[col - 2];
        if (!p) {
            // Main memory chip column.
            switch (row) {
              case 0:
                return std::ceil((mm_.tRcd + mm_.tCas) / kCpuCycleS);
              case 1: return std::ceil(mm_.tRc / kCpuCycleS);
              case 2: return mm_.totalArea * 1e6;
              case 3: return mm_.areaEfficiency * 100.0;
              case 4: return mm_.leakage;
              case 5: return mm_.refreshPower;
              case 6:
                return kMemChipsPerRank *
                       (mm_.activateEnergy + mm_.readBurstEnergy) * 1e9;
            }
            return 0;
        }
        const bool is_l3 = col >= 2;
        switch (row) {
          case 0: return double(p->accessCycles);
          case 1:
            // For the multisubbank-interleaved L3s the paper's "random
            // cycle time" row is the effective (interleaved) cycle.
            return double(is_l3 ? p->interleaveCycles
                                : p->randomCycles);
          case 2:
            return (is_l3 ? p->sol.bankArea : p->sol.totalArea) * 1e6;
          case 3: return p->sol.areaEfficiency * 100.0;
          case 4: return p->sol.leakage;
          case 5: return p->sol.refreshPower;
          case 6: return p->sol.readEnergy * 1e9;
        }
        return 0;
    };

    const char *cols[] = {"L1",    "L2",    "sram",  "lp_ed",
                          "lp_c",  "cm_ed", "cm_c",  "mm-chip"};
    os << "=== Table 3: 32nm memory hierarchy projections "
          "(model | paper) ===\n";
    os << std::left << std::setw(22) << "metric";
    for (const char *c : cols)
        os << std::setw(16) << c;
    os << "\n";
    for (int r = 0; r < 7; ++r) {
        os << std::left << std::setw(22) << paper_rows[r].metric;
        for (int c = 0; c < 8; ++c) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.3g|%.3g", model(c, r),
                          paper_rows[r].paper[c]);
            // The space keeps a 16-character cell off its neighbour.
            os << std::setw(15) << buf << ' ';
        }
        os << "\n";
    }
    os << "\ninterleave cycle (cpu cyc): ";
    for (const Projection &p : l3s_)
        os << p.name << "=" << p.interleaveCycles << " ";
    os << "\nL3 clock dividers: ";
    for (const Projection &p : l3s_)
        os << p.name << "=1/" << p.clockDiv << " ";
    os << "(paper: sram 1, lp 1, cm_ed 1/3, cm_c 1/4)\n";
    os << "MM chip timing (ns): tRCD " << mm_.tRcd * 1e9 << " CAS "
       << mm_.tCas * 1e9 << " tRP " << mm_.tRp * 1e9 << " tRC "
       << mm_.tRc * 1e9 << " tRRD " << mm_.tRrd * 1e9 << "\n";
}

std::uint64_t
defaultInstrPerThread()
{
    const char *env = std::getenv("ARCHSIM_INSTR");
    if (!env)
        return 150000;
    std::uint64_t n = 0;
    if (!cactid::util::parseNumber(env, n) || n < 1)
        throw std::invalid_argument(
            std::string("ARCHSIM_INSTR needs an integer >= 1 (got ") + env +
            ")");
    return n;
}

} // namespace archsim
