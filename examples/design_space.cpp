/**
 * @file
 * Design-space exploration: sweep last-level-cache capacity across the
 * three memory technologies at 32 nm and print the area / delay /
 * energy / static-power landscape a cache architect would study --
 * the core use case CACTI-D was built for.
 */

#include <cstdio>
#include <vector>

#include "core/cacti.hh"

int
main()
{
    using namespace cactid;

    // A sweep only needs the winners: solve it as one batch, one
    // config per core at a time.
    const SolverEngine engine(SolverOptions{0});

    std::printf("LLC design space at 32 nm (8 banks, 64B lines, "
                "sequential access)\n");
    std::printf("%-10s %-9s %9s %9s %10s %9s %9s\n", "tech", "capacity",
                "acc(ns)", "cyc(ns)", "area(mm2)", "rdE(nJ)",
                "static(W)");

    const struct {
        RamCellTech tech;
        int assoc;
    } techs[] = {
        {RamCellTech::Sram, 8},
        {RamCellTech::LpDram, 8},
        {RamCellTech::CommDram, 8},
    };

    std::vector<MemoryConfig> cfgs;
    for (const auto &[tech, assoc] : techs) {
        for (double mb : {8.0, 32.0, 128.0}) {
            MemoryConfig cfg;
            cfg.capacityBytes = mb * 1024 * 1024;
            cfg.blockBytes = 64;
            cfg.associativity = assoc;
            cfg.nBanks = 8;
            cfg.type = MemoryType::Cache;
            cfg.accessMode = AccessMode::Sequential;
            cfg.featureNm = 32.0;
            cfg.dataCellTech = tech;
            cfg.tagCellTech = tech;
            cfg.sleepTransistors = tech == RamCellTech::Sram;
            cfg.maxAccTimeConstraint = 0.5;
            cfgs.push_back(cfg);
        }
    }

    EngineStats totals;
    const std::vector<SolveResult> results = engine.solveBatch(cfgs);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const EngineStats &st = results[i].stats;
        const Solution &s = results[i].best;
        totals.partitionsEnumerated += st.partitionsEnumerated;
        totals.solutionsBuilt += st.solutionsBuilt;
        totals.totalSeconds += st.totalSeconds;
        std::printf("%-10s %6.0fMB %9.3f %9.3f %10.2f %9.3f %9.3f\n",
                    toString(cfgs[i].dataCellTech).c_str(),
                    cfgs[i].capacityBytes / (1024 * 1024),
                    s.accessTime * 1e9, s.interleaveCycle * 1e9,
                    s.totalArea * 1e6, s.readEnergy * 1e9,
                    s.leakage + s.refreshPower);
    }

    std::printf("\n(engine: %llu partitions enumerated, %llu solutions "
                "built, %.2f s total across the sweep)\n",
                static_cast<unsigned long long>(
                    totals.partitionsEnumerated),
                static_cast<unsigned long long>(totals.solutionsBuilt),
                totals.totalSeconds);

    std::printf("\nThe expected pattern (paper sections 2 and 4): "
                "COMM-DRAM is by far the densest and lowest-static-power "
                "option but ~3x slower than LP-DRAM; SRAM is fastest "
                "but pays an order of magnitude more static power at "
                "large capacities.\n");
    return 0;
}
