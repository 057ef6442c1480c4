/**
 * @file
 * Cache composition: tag array sizing, tag+data path combination under
 * the three access modes, and the whole-structure metric roll-up used
 * for plain RAMs and main-memory chips as well.
 */

#ifndef CACTID_CORE_CACHE_MODEL_HH
#define CACTID_CORE_CACHE_MODEL_HH

#include <optional>

#include "core/config.hh"
#include "core/result.hh"
#include "tech/technology.hh"

namespace cactid {

/** Solved tag array plus its comparator path. */
struct TagPath {
    BankMetrics bank;
    double comparatorDelay = 0.0;
    double comparatorEnergy = 0.0;
    double comparatorLeakage = 0.0;
    int tagBits = 0;

    /** Tag-available-to-way-select delay (array + comparator). */
    double
    matchDelay() const
    {
        return bank.accessTime + comparatorDelay;
    }
};

/** Tag bits per entry for @p cfg (address minus index/offset + status). */
int tagBitsPerEntry(const MemoryConfig &cfg);

/** The tag array's bank spec for the cache @p cfg. */
BankSpec tagBankSpec(const MemoryConfig &cfg);

/**
 * Visit the tag array's candidate partitions in a fixed order: each
 * row holds whole sets, so cols = (sets per row) x entry bits, which
 * need not be a power of two.
 */
void forEachTagPartition(const MemoryConfig &cfg,
                         const PartitionVisitor &visit);

/**
 * Solve the tag array of @p cfg: enumerates tag organizations and picks
 * the fastest one (tags are latency critical in every access mode).
 *
 * @throws InfeasibleConfig when no tag organization is feasible.
 */
TagPath solveTagPath(const Technology &t, const MemoryConfig &cfg);

/**
 * Roll one data-bank organization (plus optional tag path) up into a
 * complete Solution for @p cfg.
 */
Solution combineSolution(const Technology &t, const MemoryConfig &cfg,
                         const BankMetrics &data,
                         const std::optional<TagPath> &tag);

} // namespace cactid

#endif // CACTID_CORE_CACHE_MODEL_HH
