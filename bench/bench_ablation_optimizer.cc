/**
 * @file
 * Ablation (paper section 2.4): the solution optimization knobs.
 * Sweeps max_area, max_acctime and max_repeater_delay constraints on a
 * 16MB SRAM cache and shows the resulting area / delay / energy /
 * leakage trade-offs, plus google-benchmark timings of the solver
 * itself.
 */

#include <cstdio>

#include <benchmark/benchmark.h>

#include "core/cacti.hh"

namespace {

cactid::MemoryConfig
baseConfig()
{
    cactid::MemoryConfig c;
    c.capacityBytes = 16.0 * 1024 * 1024;
    c.blockBytes = 64;
    c.associativity = 16;
    c.type = cactid::MemoryType::Cache;
    c.accessMode = cactid::AccessMode::Sequential;
    c.featureNm = 32.0;
    return c;
}

void
printSweep()
{
    using namespace cactid;
    const SolverEngine engine(SolverOptions{0});
    std::printf("=== Ablation: optimizer constraints (16MB SRAM cache, "
                "32nm) ===\n");
    std::printf("%-30s %8s %9s %9s %8s %7s %7s\n", "constraints",
                "acc(ns)", "area(mm2)", "rdE(nJ)", "leak(W)", "pruned",
                "kept");
    for (double area_c : {0.10, 0.40, 1.00}) {
        for (double time_c : {0.05, 0.30, 1.00}) {
            for (double rep : {1.0, 3.0}) {
                MemoryConfig c = baseConfig();
                c.maxAreaConstraint = area_c;
                c.maxAccTimeConstraint = time_c;
                c.repeaterDerate = rep;
                // Energy-weighted objective: the constraint windows
                // then bound how much delay may be traded away.
                c.weights = {1.0, 1.0, 0.0, 0.0, 0.0, 0.0};
                const SolveResult r = engine.run(c);
                const Solution &s = r.best;
                std::printf("area+%.0f%% time+%.0f%% rep %.0fx      "
                            "%8.3f %9.2f %9.3f %8.3f %7llu %7zu\n",
                            area_c * 100, time_c * 100, rep,
                            s.accessTime * 1e9, s.totalArea * 1e6,
                            s.readEnergy * 1e9, s.leakage,
                            static_cast<unsigned long long>(
                                r.stats.areaPruned +
                                r.stats.timePruned),
                            r.filtered.size());
            }
        }
    }
}

void
BM_SolveSramCache(benchmark::State &state)
{
    const cactid::MemoryConfig c = baseConfig();
    for (auto _ : state) {
        benchmark::DoNotOptimize(cactid::solve(c).best.accessTime);
    }
}
BENCHMARK(BM_SolveSramCache)->Unit(benchmark::kMillisecond);

void
BM_SolveDramChip(benchmark::State &state)
{
    cactid::MemoryConfig c;
    c.capacityBytes = 1024.0 * 1024.0 * 1024.0 / 8.0;
    c.blockBytes = 8;
    c.type = cactid::MemoryType::MainMemoryChip;
    c.nBanks = 8;
    c.featureNm = 78.0;
    c.dataCellTech = cactid::RamCellTech::CommDram;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cactid::solve(c).best.tRc);
    }
}
BENCHMARK(BM_SolveDramChip)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    printSweep();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
