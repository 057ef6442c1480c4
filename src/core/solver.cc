/**
 * @file
 * Candidate evaluation implementation.
 */

#include "core/solver.hh"

#include <algorithm>

#include "core/dram_chip.hh"

namespace cactid {

BankSpec
makeBankSpec(const MemoryConfig &cfg)
{
    BankSpec spec;
    spec.sizeBits = cfg.bankBits();
    spec.outputBits = cfg.dataOutputBits();
    spec.tech = cfg.dataCellTech;
    spec.repeaterDerate = cfg.repeaterDerate;
    spec.sleepTransistors = cfg.sleepTransistors;
    spec.ports = cfg.ports;
    if (cfg.type == MemoryType::MainMemoryChip) {
        spec.mainMemoryStyle = true;
        // Commodity DRAM processes route with few, weak repeaters;
        // derate the global networks accordingly.
        spec.repeaterDerate = std::max(cfg.repeaterDerate, 2.5);
        spec.pageBits = cfg.pageBytes * 8;
        spec.ioDelay = cfg.ioDelay;
        spec.ioEnergyPerBit = cfg.ioEnergyPerBit;
    }
    return spec;
}

namespace {

/** The config's data-bank spec, once it has passed validation. */
BankSpec
validatedBankSpec(const MemoryConfig &cfg)
{
    cfg.validate();
    return makeBankSpec(cfg);
}

} // namespace

CandidateEvaluator::CandidateEvaluator(const Technology &t,
                                       const MemoryConfig &cfg)
    : t_(t), cfg_(cfg), banks_(t, validatedBankSpec(cfg))
{
    if (cfg.type == MemoryType::Cache)
        tag_ = solveTagPath(t, cfg);
    if (cfg.type == MemoryType::MainMemoryChip)
        chipWire_.emplace(chipGlobalWire(t, cfg));
}

std::optional<Solution>
CandidateEvaluator::operator()(const Partition &p)
{
    const BankMetrics bank = banks_.build(p);
    if (!bank.feasible)
        return std::nullopt;
    Solution s = combineSolution(t_, cfg_, bank, tag_);
    if (cfg_.type == MemoryType::MainMemoryChip)
        addChipLevel(cfg_, *chipWire_, s);
    return s;
}

} // namespace cactid
