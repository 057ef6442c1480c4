/**
 * @file
 * Cache composition implementation.
 */

#include "core/cache_model.hh"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "circuit/comparator.hh"

namespace cactid {

namespace {

constexpr int kStatusBits = 2; // valid + dirty (coherence adds more)

double
numSets(const MemoryConfig &cfg)
{
    return cfg.capacityBytes / (double(cfg.blockBytes) *
                                cfg.associativity);
}

} // namespace

int
tagBitsPerEntry(const MemoryConfig &cfg)
{
    const double sets = numSets(cfg);
    const int index_bits = static_cast<int>(std::round(std::log2(sets)));
    const int offset_bits =
        static_cast<int>(std::round(std::log2(cfg.blockBytes)));
    return cfg.physicalAddressBits - index_bits - offset_bits +
           kStatusBits;
}

BankSpec
tagBankSpec(const MemoryConfig &cfg)
{
    const double entry_bits =
        double(tagBitsPerEntry(cfg)) * cfg.associativity;
    BankSpec spec;
    spec.tech = cfg.tagCellTech;
    spec.sizeBits = numSets(cfg) / cfg.nBanks * entry_bits;
    spec.outputBits = static_cast<int>(entry_bits);
    spec.repeaterDerate = 1.0; // tags stay latency optimal
    spec.sleepTransistors = cfg.sleepTransistors;
    return spec;
}

void
forEachTagPartition(const MemoryConfig &cfg, const PartitionVisitor &visit)
{
    const double sets_per_bank = numSets(cfg) / cfg.nBanks;
    const double entry_bits =
        double(tagBitsPerEntry(cfg)) * cfg.associativity;
    // Tag-specific enumeration: cols = (sets-per-row) * entry bits so a
    // whole set's tags arrive in one access.
    for (int rows = 16; rows <= 8192; rows *= 2) {
        if (rows > sets_per_bank)
            break;
        for (int spr = 1; spr <= 32; spr *= 2) {
            const double n_mats = sets_per_bank / (double(rows) * spr);
            if (n_mats < 1.0)
                continue;
            const double rounded = std::round(n_mats);
            if (std::abs(n_mats - rounded) > 1e-9)
                continue;
            Partition p;
            p.rowsPerSubarray = rows;
            p.colsPerSubarray = static_cast<int>(entry_bits) * spr;
            p.blMux = 1;
            p.samMux = spr;
            visit(p);
        }
    }
}

TagPath
solveTagPath(const Technology &t, const MemoryConfig &cfg)
{
    if (cfg.type != MemoryType::Cache)
        throw std::logic_error("tag path requested for a tagless memory");

    TagPath best;
    best.tagBits = tagBitsPerEntry(cfg);
    BankBuilder banks(t, tagBankSpec(cfg));
    double best_time = std::numeric_limits<double>::infinity();
    forEachTagPartition(cfg, [&](const Partition &p) {
        const BankMetrics m = banks.build(p);
        if (m.feasible && m.accessTime < best_time) {
            best_time = m.accessTime;
            best.bank = m;
        }
    });
    if (!best.bank.feasible)
        throw InfeasibleConfig("no feasible tag organization for " +
                               cfg.summary());

    const Comparator cmp(t, t.cell(cfg.tagCellTech).peripheralDevice,
                         best.tagBits - kStatusBits);
    best.comparatorDelay = cmp.delay(Edge{}).delay;
    best.comparatorEnergy = cmp.energy() * cfg.associativity;
    best.comparatorLeakage = cmp.leakage() * cfg.associativity;
    return best;
}

Solution
combineSolution(const Technology &t, const MemoryConfig &cfg,
                const BankMetrics &data, const std::optional<TagPath> &tag)
{
    Solution s;
    s.data = data;
    s.hasTag = tag.has_value();
    if (tag)
        s.tag = tag->bank;

    const double tag_area = tag ? tag->bank.area : 0.0;
    s.bankArea = data.area + tag_area;
    s.totalArea = cfg.nBanks * s.bankArea;
    const double cell_area =
        data.areaEfficiency * data.area +
        (tag ? tag->bank.areaEfficiency * tag->bank.area : 0.0);
    s.areaEfficiency = cell_area / s.bankArea;

    // --- Access time per the access mode.
    switch (cfg.type == MemoryType::Cache ? cfg.accessMode
                                          : AccessMode::Normal) {
      case AccessMode::Normal:
        if (tag) {
            // Way select must arrive before the data leaves the bank.
            s.accessTime = std::max(tag->matchDelay(), data.accessTime);
        } else {
            s.accessTime = data.accessTime;
        }
        break;
      case AccessMode::Sequential:
        s.accessTime =
            (tag ? tag->matchDelay() : 0.0) + data.accessTime;
        break;
      case AccessMode::Fast:
        s.accessTime = std::max(tag ? tag->matchDelay() : 0.0,
                                data.accessTime);
        break;
    }

    s.randomCycle = std::max(data.randomCycle,
                             tag ? tag->bank.randomCycle : 0.0);
    s.interleaveCycle = std::max(data.interleaveCycle,
                                 tag ? tag->bank.interleaveCycle : 0.0);

    const double tag_read = tag ? tag->bank.readEnergy +
                                      tag->comparatorEnergy
                                : 0.0;
    s.readEnergy = data.readEnergy + tag_read;
    s.writeEnergy = data.writeEnergy + tag_read;

    const double tag_leak =
        tag ? tag->bank.leakage + tag->comparatorLeakage : 0.0;
    s.leakage = cfg.nBanks * (data.leakage + tag_leak);
    s.refreshPower = cfg.nBanks *
                     (data.refreshPower +
                      (tag ? tag->bank.refreshPower : 0.0));

    s.nSubbanks = data.nActiveMats > 0 ? data.nMats / data.nActiveMats
                                       : data.nMats;

    if (cfg.includeEcc) {
        // SECDED: 8 check bits per 64 data bits stored, fetched and
        // leaking alongside the data (12.5% overhead).
        constexpr double kEcc = 72.0 / 64.0;
        s.bankArea *= kEcc;
        s.totalArea *= kEcc;
        s.readEnergy *= kEcc;
        s.writeEnergy *= kEcc;
        s.leakage *= kEcc;
        s.refreshPower *= kEcc;
    }

    // Main-memory timing passthrough (chip-level routing is added by
    // the DRAM chip model).
    s.tRcd = data.tRcd;
    s.tCas = data.tCas;
    s.tRp = data.tRp;
    s.tRas = data.tRas;
    s.tRc = data.tRc;
    s.tRrd = data.tRrd;
    s.activateEnergy = data.activateEnergy;
    s.readBurstEnergy = data.readBurstEnergy;
    s.writeBurstEnergy = data.writeBurstEnergy;

    (void)t;
    return s;
}

} // namespace cactid
