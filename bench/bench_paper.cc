/**
 * @file
 * The paper's whole evaluation in one run: Table 1, Figure 1, Table 2,
 * Table 3, Figures 4(a), 4(b), 5(a), 5(b) and the section 4.3 thermal
 * bound, printed in EXPERIMENTS.md order, each section opening with
 * one `===` banner.
 *
 * Table 1, Figure 1 and Table 2 come from the solver alone.  Table 3,
 * the four figures and the thermal section share one Study (its eight
 * CACTI-D projections) and one 6 x 8 sweep through the StudyRunner
 * worker pool (all cores, thermal solve off); a parallel sweep is
 * identical to a serial one by construction.
 *
 * ARCHSIM_INSTR sets the instruction budget per thread (default
 * 150k).  Writes nothing but stdout.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/cacti.hh"
#include "sim/runner.hh"
#include "tech/technology.hh"

namespace {

/**
 * Table 1: key characteristics of the SRAM, LP-DRAM, and COMM-DRAM
 * technologies at 32 nm, from the technology model next to the
 * paper's values.
 */
void
table1Technology()
{
    using namespace cactid;
    const Technology t(32.0);

    std::printf("=== Table 1: technology characteristics at 32 nm "
                "(model | paper) ===\n");
    std::printf("%-34s %-16s %-16s %-16s\n", "characteristic", "SRAM",
                "LP-DRAM", "COMM-DRAM");

    const CellParams &sram = t.cell(RamCellTech::Sram);
    const CellParams &lp = t.cell(RamCellTech::LpDram);
    const CellParams &cm = t.cell(RamCellTech::CommDram);

    std::printf("%-34s %.0f|146 F^2       %.0f|30 F^2        "
                "%.0f|6 F^2\n",
                "cell area", sram.areaF2, lp.areaF2, cm.areaF2);
    std::printf("%-34s %-16s %-16s %-16s\n", "cell device",
                toString(sram.accessDevice).c_str(),
                toString(lp.accessDevice).c_str(),
                toString(cm.accessDevice).c_str());
    std::printf("%-34s %-16s %-16s %-16s\n", "peripheral device",
                toString(sram.peripheralDevice).c_str(),
                toString(lp.peripheralDevice).c_str(),
                toString(cm.peripheralDevice).c_str());
    std::printf("%-34s %-16s %-16s %-16s\n", "bitline conductor",
                "Copper", "Copper", "Tungsten");
    std::printf("%-34s %.1f|0.9 V        %.1f|1.0 V        "
                "%.1f|1.0 V\n",
                "cell VDD", sram.vddCell, lp.vddCell, cm.vddCell);
    std::printf("%-34s %-16s %.0f|20 fF        %.0f|30 fF\n",
                "storage capacitance", "N/A", lp.cStorage * 1e15,
                cm.cStorage * 1e15);
    std::printf("%-34s %-16s %.1f|1.5 V        %.1f|2.6 V\n",
                "boosted wordline VPP", "N/A", lp.vpp, cm.vpp);
    std::printf("%-34s %-16s %.2f|0.12 ms      %.0f|64 ms\n",
                "refresh period", "N/A", lp.retention * 1e3,
                cm.retention * 1e3);

    // Device summary for the four logic flavours.
    std::printf("\nITRS logic devices at 32 nm (vdd V / ion uA/um / "
                "ioff nA/um):\n");
    for (DeviceKind k : {DeviceKind::ItrsHp, DeviceKind::ItrsLstp,
                         DeviceKind::ItrsLop,
                         DeviceKind::HpLongChannel}) {
        const DeviceParams &d = t.device(k);
        std::printf("  %-18s %.2f / %4.0f / %8.3f\n",
                    toString(k).c_str(), d.vdd, d.iOnN * 1e-6 * 1e6,
                    d.iOffN * 1e3);
    }
}

// Figure 1 reference: reconstructions from the published sources the
// paper cites (the figure axes are not machine-readable).  The Tulsa
// die is 435 mm^2 with the L3 occupying roughly half; the L3 random
// access time is ~3.5 ns; the two quoted dynamic powers are ~2.6 W
// and ~1.1 W; leakage with sleep transistors is ~2.5 W.
constexpr double kXeonAreaMm2 = 198.0;
constexpr double kXeonAccessNs = 3.5;
constexpr double kXeonDynPowerHighW = 2.6;
constexpr double kXeonDynPowerLowW = 1.1;
constexpr double kXeonLeakageW = 2.5;

/**
 * Figure 1: SRAM model validation against the 65 nm 16MB Intel Xeon
 * L3 cache (Chang et al., JSSC'07).  The paper's bubble chart plots
 * CACTI-D solutions from max_area / max_acctime / max_repeater_delay
 * sweeps as access time vs. dynamic power (bubble size = area) next to
 * the published part, and claims ~20% average error for the
 * best-access-time solution.
 */
void
fig1SramValidation()
{
    using namespace cactid;

    MemoryConfig cfg;
    cfg.capacityBytes = 16.0 * 1024 * 1024;
    cfg.blockBytes = 64;
    cfg.associativity = 16;
    cfg.nBanks = 1;
    cfg.type = MemoryType::Cache;
    cfg.accessMode = AccessMode::Sequential; // big LLC, energy conscious
    cfg.featureNm = 65.0;
    cfg.dataCellTech = RamCellTech::Sram;
    cfg.sleepTransistors = true;
    cfg.includeEcc = true; // the Xeon L3 stores ECC alongside data

    std::printf("=== Figure 1: 65nm Xeon 16MB L3 validation ===\n");
    std::printf("target bubbles: access %.2f ns, area %.0f mm^2, "
                "dynamic power %.1f / %.1f W, leakage %.1f W\n\n",
                kXeonAccessNs, kXeonAreaMm2, kXeonDynPowerHighW,
                kXeonDynPowerLowW, kXeonLeakageW);
    std::printf("%-34s %9s %9s %9s %9s\n", "constraints (area,time,rep)",
                "acc(ns)", "area(mm2)", "dyn(W)", "leak(W)");

    double best_time = 1e9;
    Solution best;
    const double area_cons[] = {0.10, 0.25, 0.50};
    const double time_cons[] = {0.05, 0.25, 0.50};
    const double derates[] = {1.0, 2.0, 3.0};
    for (double a : area_cons) {
        for (double ti : time_cons) {
            for (double d : derates) {
                cfg.maxAreaConstraint = a;
                cfg.maxAccTimeConstraint = ti;
                cfg.repeaterDerate = d;
                const SolveResult r = solve(cfg);
                const Solution &s = r.best;
                // Dynamic power at activity factor 1.0: one access
                // per random cycle (max operating frequency).
                const double dyn = s.readEnergy / s.randomCycle;
                std::printf("a<=best+%.0f%% t<=best+%.0f%% rep %.0fx   "
                            "%9.3f %9.2f %9.2f %9.2f\n",
                            a * 100, ti * 100, d, s.accessTime * 1e9,
                            s.totalArea * 1e6, dyn, s.leakage);
                if (s.accessTime < best_time) {
                    best_time = s.accessTime;
                    best = s;
                }
            }
        }
    }

    // A sample of the filtered solution cloud (the paper's bubbles).
    cfg.maxAreaConstraint = 0.50;
    cfg.maxAccTimeConstraint = 0.50;
    cfg.repeaterDerate = 1.0;
    const SolveResult cloud = solve(cfg);
    std::printf("\nsolution cloud (%zu organizations pass the "
                "constraints):\n", cloud.filtered.size());
    const std::size_t step =
        std::max<std::size_t>(1, cloud.filtered.size() / 8);
    for (std::size_t i = 0; i < cloud.filtered.size(); i += step) {
        const Solution &s = cloud.filtered[i];
        std::printf("  bubble: acc %.3f ns, area %.1f mm^2, dyn %.2f "
                    "W\n", s.accessTime * 1e9, s.totalArea * 1e6,
                    s.readEnergy / s.randomCycle);
    }

    const double dyn = best.readEnergy / best.randomCycle;
    // The paper plots two target bubbles (two quoted dynamic powers for
    // different application activity); compare against the closer one.
    const double err_hi = (dyn - kXeonDynPowerHighW) / kXeonDynPowerHighW;
    const double err_lo = (dyn - kXeonDynPowerLowW) / kXeonDynPowerLowW;
    const double errs[] = {
        (best.accessTime * 1e9 - kXeonAccessNs) / kXeonAccessNs,
        (best.totalArea * 1e6 - kXeonAreaMm2) / kXeonAreaMm2,
        std::fabs(err_hi) < std::fabs(err_lo) ? err_hi : err_lo,
    };
    double mean = 0.0;
    for (double e : errs)
        mean += std::fabs(e);
    mean /= std::size(errs);
    std::printf("\nbest-access-time solution: access %.3f ns, area "
                "%.1f mm^2, dynamic %.2f W, leakage %.2f W\n",
                best.accessTime * 1e9, best.totalArea * 1e6, dyn,
                best.leakage);
    std::printf("average |error| vs target: %.1f%% (paper reports ~20%%)\n",
                mean * 100.0);
}

/** One Table 2 row: model vs. actual, next to the paper's error. */
struct Table2Row {
    const char *metric;
    double actual;
    double model;
    double paper_error_pct; // error the paper's CACTI-D reported
    const char *unit;
};

void
printTable2Row(const Table2Row &r)
{
    const double err = (r.model - r.actual) / r.actual * 100.0;
    std::printf("%-28s %10.2f %10.2f %8.1f%% %12.1f%% %s\n", r.metric,
                r.actual, r.model, err, r.paper_error_pct, r.unit);
}

/**
 * Table 2: DRAM model validation against a 78 nm Micron 1Gb
 * DDR3-1066 x8 part (datasheet timing + Micron power calculator
 * energies).
 */
void
table2DramValidation()
{
    using namespace cactid;

    MemoryConfig cfg;
    cfg.capacityBytes = 1024.0 * 1024.0 * 1024.0 / 8.0; // 1 Gb
    cfg.blockBytes = 8;
    cfg.type = MemoryType::MainMemoryChip;
    cfg.nBanks = 8;
    cfg.featureNm = 78.0;
    cfg.dataCellTech = RamCellTech::CommDram;
    cfg.pageBytes = 1024; // 8 Kb page (1 Gb x8 DDR3)
    cfg.ioBits = 8;
    cfg.burstLength = 8;
    cfg.prefetchWidth = 8;
    // Commodity DRAM carries a premium on price per bit: select a high
    // area-efficiency solution (paper section 2.5).
    cfg.maxAreaConstraint = 0.10;
    cfg.maxAccTimeConstraint = 1.00;
    cfg.weights = {1.0, 0.0, 1.0, 0.0, 0.0, 4.0};

    const SolveResult res = solve(cfg);
    const Solution &s = res.best;

    std::printf("=== Table 2: DRAM validation vs 78nm Micron 1Gb "
                "DDR3-1066 x8 ===\n");
    std::printf("%-28s %10s %10s %9s %13s\n", "Metric", "Actual",
                "CACTI-D", "Error", "PaperError");
    printTable2Row({"Area efficiency", 56.0, s.areaEfficiency * 100.0,
                    -6.2, "%"});
    printTable2Row({"Activation delay (tRCD)", 13.1, s.tRcd * 1e9, 4.5,
                    "ns"});
    printTable2Row({"CAS latency", 13.1, s.tCas * 1e9, -5.8, "ns"});
    printTable2Row({"Row cycle time (tRC)", 52.5, s.tRc * 1e9, -8.2,
                    "ns"});
    printTable2Row({"ACTIVATE energy", 3.1, s.activateEnergy * 1e9,
                    -25.2, "nJ"});
    printTable2Row({"READ energy", 1.6, s.readBurstEnergy * 1e9, -32.2,
                    "nJ"});
    printTable2Row({"WRITE energy", 1.8, s.writeBurstEnergy * 1e9,
                    -33.0, "nJ"});
    printTable2Row({"Refresh power", 3.5, s.refreshPower * 1e3, 29.0,
                    "mW"});

    const double errs[] = {
        (s.areaEfficiency * 100.0 - 56.0) / 56.0,
        (s.tRcd * 1e9 - 13.1) / 13.1,
        (s.tCas * 1e9 - 13.1) / 13.1,
        (s.tRc * 1e9 - 52.5) / 52.5,
        (s.activateEnergy * 1e9 - 3.1) / 3.1,
        (s.readBurstEnergy * 1e9 - 1.6) / 1.6,
        (s.writeBurstEnergy * 1e9 - 1.8) / 1.8,
        (s.refreshPower * 1e3 - 3.5) / 3.5,
    };
    double mean = 0.0;
    for (double e : errs)
        mean += std::fabs(e);
    mean /= std::size(errs);
    std::printf("\naverage |error|: %.1f%% (paper reports 16%%)\n",
                mean * 100.0);
    std::printf("\nchosen organization:\n%s\n", s.report().c_str());
}

/**
 * Table 3: CACTI-D projections of all memory-hierarchy levels at the
 * 32 nm node (L1, L2, five L3 options, main-memory DRAM chip),
 * model-vs-paper.  It prints through std::cout; the streams stay
 * synced with stdio, so the sections keep their order on a pipe.
 */
void
table3Projections(const archsim::Study &study)
{
    study.printTable3(std::cout);
}

/**
 * Figure 4(a): IPC and average read latency of the eight NPB
 * applications on the six cache configurations.
 */
void
fig4aIpc(std::uint64_t instr_per_thread,
         const std::vector<archsim::RunResult> &runs)
{
    using namespace archsim;
    std::printf("=== Figure 4(a): IPC and average read latency "
                "(%llu instr/thread) ===\n",
                static_cast<unsigned long long>(instr_per_thread));
    std::printf("%-6s %-11s %6s %12s\n", "app", "config", "IPC",
                "read-lat(cyc)");
    std::string last_workload;
    for (const RunResult &r : runs) {
        if (r.workload != last_workload && !last_workload.empty())
            std::printf("\n");
        last_workload = r.workload;
        std::printf("%-6s %-11s %6.2f %12.1f\n", r.workload.c_str(),
                    r.config.c_str(), r.stats.ipc,
                    r.stats.avgReadLatency);
    }
    std::printf("\n");
    std::printf("expected shape (paper section 4.2): ft.B and lu.C fit "
                "in the DRAM L3s (SRAM too small, especially for lu.C); "
                "bt/is/mg/sp improve monotonically with capacity; cg.C "
                "and ua.C are insensitive.\n");
}

/**
 * Figure 4(b): normalized execution-cycle breakdown (instruction /
 * L2 / L3 / memory / barrier / lock) per application and
 * configuration, with the total normalized to the no-L3 system.
 */
void
fig4bCycleBreakdown(const std::vector<archsim::RunResult> &runs)
{
    using namespace archsim;
    std::printf("=== Figure 4(b): normalized execution cycle breakdown "
                "===\n");
    std::printf("%-6s %-11s %7s %6s %6s %6s %6s %6s %6s\n", "app",
                "config", "time", "instr", "L2", "L3", "memory",
                "barrier", "lock");
    std::string last_workload;
    double base = 0.0;
    for (const RunResult &r : runs) {
        if (r.workload != last_workload && !last_workload.empty())
            std::printf("\n");
        last_workload = r.workload;
        const SimStats &s = r.stats;
        if (r.config == "nol3")
            base = double(s.cycles);
        const double t = double(s.cycles) / base;
        std::printf(
            "%-6s %-11s %7.3f %6.3f %6.3f %6.3f %6.3f %6.3f %6.3f\n",
            r.workload.c_str(), r.config.c_str(), t, t * s.fInstruction,
            t * s.fL2, t * s.fL3, t * s.fMemory, t * s.fBarrier,
            t * s.fLock);
    }
    std::printf("\n");
}

/**
 * Figure 5(a): memory hierarchy power breakdown per application and
 * configuration: L1/L2/crossbar/L3 leakage + dynamic, main-memory
 * chip dynamic / standby / refresh, and memory bus power.
 */
void
fig5aMemhierPower(const std::vector<archsim::RunResult> &runs)
{
    using namespace archsim;
    std::printf("=== Figure 5(a): memory hierarchy power breakdown (W) "
                "===\n");
    std::printf("%-6s %-11s %6s | %5s %5s %5s %5s %5s %5s %5s %5s %5s "
                "%5s\n",
                "app", "config", "total", "L1", "L2", "xbar", "L3lk",
                "L3dyn", "L3rf", "Mdyn", "Mstby", "Mrf", "bus");

    double sum_nol3 = 0.0;
    double sums[6] = {};
    std::string last_workload;
    int idx = 0;
    for (const RunResult &r : runs) {
        if (r.workload != last_workload) {
            if (!last_workload.empty())
                std::printf("\n");
            idx = 0;
        }
        last_workload = r.workload;
        const PowerBreakdown &b = r.power;
        std::printf("%-6s %-11s %6.2f | %5.2f %5.2f %5.2f %5.2f "
                    "%5.2f %5.2f %5.2f %5.2f %5.2f %5.2f\n",
                    r.workload.c_str(), r.config.c_str(),
                    b.memoryHierarchy(), b.l1Leak + b.l1Dyn,
                    b.l2Leak + b.l2Dyn, b.xbarLeak + b.xbarDyn,
                    b.l3Leak, b.l3Dyn, b.l3Refresh, b.mainDyn,
                    b.mainStandby, b.mainRefresh, b.bus);
        sums[idx] += b.memoryHierarchy();
        if (r.config == "nol3")
            sum_nol3 += b.memoryHierarchy();
        ++idx;
    }
    std::printf("\n");

    std::printf("average memory-hierarchy power increase vs nol3 "
                "(paper: sram +58%%, lp_ed +37%%, lp_c +35%%, cm_ed "
                "+1.2%%, cm_c +2.3%%):\n");
    idx = 0;
    for (const std::string &cfg : Study::configNames()) {
        std::printf("  %-11s %+6.1f%%\n", cfg.c_str(),
                    (sums[idx] / sum_nol3 - 1.0) * 100.0);
        ++idx;
    }
}

/**
 * Figure 5(b): system power breakdown (core + memory hierarchy) and
 * system energy-delay product normalized to the no-L3 system.
 */
void
fig5bSystemEdp(const std::vector<archsim::RunResult> &runs)
{
    using namespace archsim;
    std::printf("=== Figure 5(b): system power and normalized "
                "energy-delay product ===\n");
    std::printf("%-6s %-11s %8s %8s %8s %9s\n", "app", "config",
                "core(W)", "mh(W)", "sys(W)", "EDP-norm");

    double edp_sums[6] = {};
    int improved_sram = 0;
    int faster[6] = {};
    std::string last_workload;
    double edp_base = 0.0;
    double t_base = 0.0;
    int idx = 0;
    for (const RunResult &r : runs) {
        if (r.workload != last_workload) {
            if (!last_workload.empty())
                std::printf("\n");
            idx = 0;
        }
        last_workload = r.workload;
        const PowerBreakdown &b = r.power;
        if (r.config == "nol3") {
            edp_base = b.edp();
            t_base = b.execSeconds;
        }
        const double edp_norm = b.edp() / edp_base;
        edp_sums[idx] += edp_norm;
        if (b.execSeconds < t_base)
            ++faster[idx];
        if (r.config == "sram" && edp_norm < 1.0)
            ++improved_sram;
        std::printf("%-6s %-11s %8.2f %8.2f %8.2f %9.3f\n",
                    r.workload.c_str(), r.config.c_str(), b.corePower,
                    b.memoryHierarchy(), b.system(), edp_norm);
        ++idx;
    }
    std::printf("\n");

    std::printf("geometric-mean-free average normalized EDP (paper: "
                "cm_ed 0.67, cm_c 0.60):\n");
    idx = 0;
    for (const std::string &cfg : Study::configNames()) {
        std::printf("  %-11s %6.3f  (faster than nol3 on %d/8 apps)\n",
                    cfg.c_str(), edp_sums[idx] / 8.0, faster[idx]);
        ++idx;
    }
    std::printf("sram L3 improves EDP on %d/8 apps (paper: 4)\n",
                improved_sram);
}

/**
 * Section 4.3 thermal study: maximum temperature of the 2-die stack
 * for each LLC technology (HotSpot-equivalent steady-state grid
 * solve).  The paper reports a maximum difference between the
 * technologies below 1.5 K, with the SRAM L3 densest (~450 mW/bank).
 */
void
thermalStack(const archsim::Study &study)
{
    using namespace archsim;
    ThermalParams tp;
    // Bottom die: 22.3 W over 8 core tiles (L1/L2 leakage included).
    const double core_die_w = 22.3;

    std::printf("=== Thermal: 2-die stack, max temperature per LLC "
                "technology ===\n");
    std::printf("%-11s %12s %12s %12s\n", "config", "bank P (mW)",
                "Tmax (K)", "dT vs nol3");

    double t_nol3 = 0.0;
    double t_min = 1e9;
    double t_max = 0.0;
    for (const std::string &cfg : Study::configNames()) {
        // Per-bank L3 power: standby + refresh + a nominal dynamic
        // share (the paper's max observed bank power is ~450 mW for
        // SRAM).
        double bank_p = study.l3BankStandbyPower(cfg);
        if (cfg != "nol3")
            bank_p += 0.020; // nominal dynamic per bank

        const ThermalResult r = solveStudyStack(tp, core_die_w, bank_p);
        if (cfg == "nol3") {
            t_nol3 = r.maxTemp;
        } else {
            t_min = std::min(t_min, r.maxTemp);
            t_max = std::max(t_max, r.maxTemp);
        }
        std::printf("%-11s %12.1f %12.2f %+12.3f\n", cfg.c_str(),
                    bank_p * 1e3, r.maxTemp, r.maxTemp - t_nol3);
    }
    std::printf("\nmax temperature difference between stacked L3 "
                "technologies: %.3f K (paper: < 1.5 K)\n",
                t_max - t_min);
}

} // namespace

int
main()
{
    table1Technology();
    fig1SramValidation();
    table2DramValidation();

    const archsim::Study study;
    table3Projections(study);

    archsim::RunnerOptions opts;
    opts.thermal = false;
    const archsim::StudyRunner runner(study, opts);
    const std::vector<archsim::RunResult> runs = runner.runAll();
    fig4aIpc(runner.instrPerThread(), runs);
    fig4bCycleBreakdown(runs);
    fig5aMemhierPower(runs);
    fig5bSystemEdp(runs);

    thermalStack(study);
    return 0;
}
