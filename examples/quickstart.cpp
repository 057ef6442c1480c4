/**
 * @file
 * Quickstart: model a 1MB 8-way SRAM L2 cache at 32 nm and print the
 * chosen organization, then show a COMM-DRAM main-memory chip.
 */

#include <cstdio>
#include <iostream>

#include "core/cacti.hh"

int
main()
{
    using namespace cactid;

    // --- An SRAM cache.
    MemoryConfig l2;
    l2.capacityBytes = 1 << 20;
    l2.blockBytes = 64;
    l2.associativity = 8;
    l2.nBanks = 1;
    l2.type = MemoryType::Cache;
    l2.featureNm = 32.0;
    l2.dataCellTech = RamCellTech::Sram;

    std::cout << "=== " << l2.summary() << " ===\n";
    const SolveResult l2_result = solve(l2);
    std::cout << l2_result.best.report() << "\n";

    // --- A commodity DRAM main-memory chip.
    MemoryConfig dram;
    dram.capacityBytes = 1024.0 * 1024.0 * 1024.0 / 8.0; // 1 Gb
    dram.blockBytes = 8;
    dram.type = MemoryType::MainMemoryChip;
    dram.nBanks = 8;
    dram.featureNm = 78.0;
    dram.dataCellTech = RamCellTech::CommDram;
    dram.pageBytes = 1024; // 8 Kb page
    dram.ioBits = 8;
    dram.burstLength = 8;
    dram.prefetchWidth = 8;
    dram.weights = {1.0, 1.0, 1.0, 1.0, 0.0, 2.0}; // prize area

    std::cout << "=== " << dram.summary() << " ===\n";
    const SolveResult dram_result = solve(dram);
    std::cout << dram_result.best.report() << "\n";
    std::printf("explored %llu organizations, %zu passed constraints\n",
                static_cast<unsigned long long>(
                    dram_result.stats.solutionsBuilt),
                dram_result.filtered.size());
    return 0;
}
