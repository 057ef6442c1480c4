/**
 * @file
 * Memoized solve cache: one in-memory LRU over canonical config
 * fingerprints, with an optional on-disk store so cold processes and
 * sweep shards start warm.
 *
 * Design-space sweeps re-solve the same (technology, capacity,
 * geometry) points over and over; a production solve service answers
 * millions of queries dominated by repeats.  The cache memoizes a
 * SolveResult (the best solution, the constraint survivors and the
 * solve's stats) keyed by the 128-bit canonical config fingerprint
 * (core/fingerprint.hh), and a hit is byte-identical to re-running
 * the solve — the engine's jobs=N == jobs=1 determinism guarantee is
 * what makes memoization sound in the first place.
 *
 * Concurrency: one lock guards the LRU list and its index, and all
 * counters are atomics, so engine threads may share one cache
 * (TSan-tested).  solveBatch does every lookup before its fan-out and
 * every insert after the join, so the lock is uncontended there.
 *
 * Durability: with `diskDir` set, every insert also writes one
 * `sc-<fingerprint>.v1` record ("cactid-cache-v2" in the checksummed
 * framing of util/record.hh, written via the shared atomic-file
 * helper) and a memory miss falls back to the directory.  Records are
 * stamped with the build fingerprint of the binary that wrote them: a
 * record written by a different model build or in an older format, a
 * torn write, or an alien file is rejected (engine.cache.rejected,
 * one-line warning) and re-solved — stale models never serve.  The
 * file name keeps its `.v1` suffix, so a cactid-cache-v1 record left
 * in a directory is found, rejected and overwritten, not orphaned.
 */

#ifndef CACTID_CORE_SOLVE_CACHE_HH
#define CACTID_CORE_SOLVE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/fingerprint.hh"
#include "core/result.hh"

namespace cactid {

namespace obs {
class Registry;
}

/** Capacity bounds and durability knobs of a SolveCache. */
struct SolveCacheConfig {
    /** Entry-count bound over the whole cache (>= 1 entry kept). */
    std::size_t maxEntries = 4096;

    /** Approximate byte bound over the whole cache (>= 1 entry kept). */
    std::size_t maxBytes = std::size_t(256) << 20;

    /** On-disk store directory; empty = in-memory only. */
    std::string diskDir;

    /**
     * Build stamp written into (and demanded of) on-disk records.
     * Empty = SolveCache::defaultBuildStamp(), derived from the
     * compiled-in build info — so records never outlive the model
     * that produced them.  Tests override it to simulate stale files.
     */
    std::string buildStamp;

    /**
     * One-line diagnostics (rejected records).  Default: the first
     * rejection per cache prints to stderr; later ones only count.
     */
    std::function<void(const std::string &)> onWarn;
};

/** Point-in-time counter snapshot (all monotonic except occupancy). */
struct SolveCacheCounters {
    std::uint64_t hits = 0;       ///< served from memory or disk
    std::uint64_t misses = 0;     ///< full miss: caller must solve
    std::uint64_t evictions = 0;  ///< LRU evictions (bounds)
    std::uint64_t inserts = 0;    ///< entries stored after a solve
    std::uint64_t diskHits = 0;   ///< memory miss served by the store
    std::uint64_t diskWrites = 0; ///< records persisted
    std::uint64_t rejected = 0;   ///< invalid/stale records refused
    std::uint64_t entries = 0;    ///< current resident entries
    std::uint64_t bytes = 0;      ///< current approximate bytes
};

/** The memoized solve cache. */
class SolveCache {
public:
    explicit SolveCache(SolveCacheConfig cfg = {});

    /**
     * Look @p fp up; on a hit copy the memoized result into @p out
     * and return true.  @p key is the canonical key string of the
     * request — compared byte-wise against the entry so even a
     * 128-bit fingerprint collision cannot serve the wrong config.
     */
    bool lookup(const ConfigFingerprint &fp, const std::string &key,
                SolveResult &out);

    /**
     * Memoize @p res for (@p fp, @p key).  Replaces any existing
     * entry, bumps it to most-recently-used, evicts LRU entries past
     * the bounds, and persists a record when a disk directory is
     * configured.
     */
    void insert(const ConfigFingerprint &fp, const std::string &key,
                const SolveResult &res);

    SolveCacheCounters counters() const;

    const SolveCacheConfig &config() const { return cfg_; }

    /** Build stamp actually in force (config override or default). */
    const std::string &buildStamp() const { return stamp_; }

    /**
     * Stamp derived from the compiled-in build info (git describe,
     * compiler, flags, build type): equal binaries agree, any model
     * rebuild disagrees.
     */
    static std::string defaultBuildStamp();

    // --- Record codec (exposed for tests and tooling).

    /** Serialize one cache record ("cactid-cache-v2" text). */
    std::string encodeRecord(const std::string &key,
                             const SolveResult &res) const;

    /** decodeRecord outcome. */
    enum class Load : std::uint8_t {
        Loaded,   ///< @p out holds the persisted result
        Rejected, ///< torn, corrupt, stale build, or alien record
    };

    /**
     * Parse + validate @p bytes against (@p fp, @p key); Rejected on
     * any defect (bad crc, wrong version header, wrong build stamp,
     * wrong key).  @p why receives a one-line reason when non-null.
     */
    Load decodeRecord(const std::string &bytes,
                      const ConfigFingerprint &fp,
                      const std::string &key, SolveResult &out,
                      std::string *why = nullptr) const;

    /** On-disk record path of @p fp (empty when no disk store). */
    std::string recordPath(const ConfigFingerprint &fp) const;

private:
    struct Entry {
        ConfigFingerprint fp;
        std::string key;
        SolveResult res;
        std::size_t bytes = 0;
    };

    void storeLocked(const ConfigFingerprint &fp,
                     const std::string &key, const SolveResult &res);
    bool diskLookup(const ConfigFingerprint &fp,
                    const std::string &key, SolveResult &out);
    void warnOnce(const std::string &msg);

    SolveCacheConfig cfg_;
    std::string stamp_;

    mutable std::mutex mtx_; ///< guards lru_, index_ and bytes_
    std::list<Entry> lru_;   ///< front = most recently used
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator>
        index_; ///< fp.lo -> entry (fp.hi + key checked on hit)
    std::size_t bytes_ = 0;

    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    mutable std::atomic<std::uint64_t> evictions_{0};
    mutable std::atomic<std::uint64_t> inserts_{0};
    mutable std::atomic<std::uint64_t> diskHits_{0};
    mutable std::atomic<std::uint64_t> diskWrites_{0};
    mutable std::atomic<std::uint64_t> rejected_{0};
    std::atomic<bool> warned_{false};
};

/**
 * Publish a counter snapshot under the registry's engine.cache.*
 * namespace.  Every name is always written — an enabled-but-unhit
 * cache dumps explicit zeros, so shard registry merges never disagree
 * on the label set.
 */
void registerSolveCacheStats(obs::Registry &r,
                             const SolveCacheCounters &c);

/**
 * The process-global cache consulted by SolverEngine runs whose
 * options carry no explicit cache (nullptr by default: no caching).
 * Tools install one behind `--cache/--cache-dir` before constructing
 * studies, so every solve in the process is memoized.  Not owned.
 */
SolveCache *globalSolveCache();
void setGlobalSolveCache(SolveCache *cache);

} // namespace cactid

#endif // CACTID_CORE_SOLVE_CACHE_HH
