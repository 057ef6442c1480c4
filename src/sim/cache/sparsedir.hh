/**
 * @file
 * Sparse coherence directory for wide systems (> kAutoBroadcastCores).
 *
 * Up to kAutoBroadcastCores the hierarchy snoops by broadcast: every
 * L2 miss and write upgrade probes each remote L2.  Beyond that,
 * O(nCores) remote tag probes per miss is both slow to simulate and
 * unrepresentative of how server-scale parts are built.  The
 * SparseDirectory replaces broadcast there with the classic
 * limited-pointer sparse-directory organization (in the style of
 * Graphite's pr_l1_sh_l2_spdir_msi):
 *
 *  - a set-associative array of directory entries (sets x assoc, LRU
 *    within a set), indexed by a hash of the line address;
 *  - each entry tracks up to k exact core pointers (k = `pointers`),
 *    kept sorted so snoops visit sharers in ascending core id — the
 *    same order the broadcast loop probed them;
 *  - on the (k+1)-th sharer the entry *overflows*: the hardware
 *    representation degrades to an all-sharers bit and a subsequent
 *    snoop or invalidation must visit every core.  The model keeps the
 *    exact sharer set alongside (a per-line bitset) so membership
 *    tests, audits and eviction invalidations stay precise; only the
 *    snoop set reported to the protocol widens.  The entry demotes
 *    back to exact pointers once invalidations shrink it to <= 1
 *    sharer (the one point where the hardware knows the set again);
 *  - allocating into a full set evicts the LRU entry, and the protocol
 *    must invalidate that entry's tracked sharers (the directory is
 *    the only record of who holds the line — an untracked copy could
 *    later be written stale).  The victim snapshot returned by
 *    allocate() carries the exact sharer list for that invalidation.
 *
 * Snoop traffic is therefore proportional to actual sharing for every
 * non-overflowed line at any core count, and the structure's occupancy,
 * evictions, overflows and demotions are all counted for the obs layer.
 */

#ifndef ARCHSIM_CACHE_SPARSEDIR_HH
#define ARCHSIM_CACHE_SPARSEDIR_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/common.hh"

namespace archsim {

/**
 * How the hierarchy tracks remote sharers (see CacheHierarchy).  The
 * values are part of checkpoint keys (StudyRunner::fingerprint), so
 * they stay fixed; 1 was a retired snoop-filter-only mode.
 */
enum class DirectoryMode : std::uint8_t {
    /**
     * Default: broadcast up to kAutoBroadcastCores (the protocol the
     * pinned goldens were captured from), the sparse directory
     * beyond — with a one-time warning plus a counter, because the
     * implicit switch changes the modeled protocol.
     */
    Auto = 0,
    /** No directory: probe every remote L2, at any core count. */
    Broadcast = 2,
    /** Sparse limited-pointer directory at any core count. */
    Sparse = 3,
};

/** Widest system DirectoryMode::Auto snoops by broadcast. */
constexpr int kAutoBroadcastCores = 16;

/** Geometry of the sparse directory. */
struct SparseDirParams {
    /**
     * Directory sets; must be a power of two.  0 auto-sizes the
     * directory to cover twice the aggregate L2 line count at `assoc`
     * ways.  That halves the mean set load but still evicts: hashed
     * sets fill unevenly, and the pinned 32-core cg.C run evicts 1399
     * entries over 62857 L2 misses at this default.
     */
    std::size_t sets = 0;
    int assoc = 8;    ///< entries per set (LRU replacement)
    int pointers = 4; ///< exact core pointers per entry (k)
};

/** Limited-pointer sparse directory over the private L2s. */
class SparseDirectory
{
  public:
    /** Widest system the int16 pointer representation supports. */
    static constexpr int kMaxCores = 4096;

    /** Snapshot of one live entry (audits and tests). */
    struct Entry {
        Addr line = 0;
        std::vector<int> sharers; ///< exact, ascending core ids
        bool overflow = false;
        int owner = -1; ///< core holding the line Modified, or -1
    };

    /** Entry evicted by allocate(); sharers must be invalidated. */
    struct Victim {
        bool valid = false;
        Addr line = 0;
        std::vector<int> sharers; ///< exact, ascending core ids
        bool overflow = false;
        int owner = -1;
    };

    /** Structure counters (monotonic over the directory's life). */
    struct Stats {
        std::uint64_t evictions = 0;      ///< live entries evicted
        std::uint64_t evictionInvals = 0; ///< sharer copies those evictions named
        std::uint64_t overflows = 0;      ///< pointer -> all-sharers promotions
        std::uint64_t demotions = 0;      ///< all-sharers -> pointer returns
        std::uint64_t peakLive = 0;       ///< high-water live entry count
    };

    /**
     * @param n_cores        cores tracked (1..kMaxCores)
     * @param p              geometry (see SparseDirParams)
     * @param expected_lines aggregate L2 line capacity, for auto-sizing
     *
     * @throws std::invalid_argument for a non-power-of-two set count,
     * a non-positive assoc or pointer count, or a core count outside
     * 1..kMaxCores — each with a message naming the offending value.
     */
    SparseDirectory(int n_cores, const SparseDirParams &p,
                    std::size_t expected_lines);

    /**
     * Ensure a directory entry exists for @p line, evicting the LRU
     * entry of its set when full.  The returned victim (valid only
     * when an eviction happened) snapshots the evicted entry; the
     * caller must invalidate its tracked sharers' cached copies.
     */
    Victim allocate(Addr line);

    /**
     * Core @p core filled @p line into its L2.  The entry must exist
     * (call allocate() first).  @return true when this addition
     * overflowed the pointer representation (for trace events).
     */
    bool addSharer(Addr line, int core);

    /**
     * Core @p core dropped @p line (eviction or invalidation).  Exact
     * membership is tracked even in overflow mode, so a non-sharer
     * remove is a no-op; an entry demotes back to pointer mode at
     * <= 1 sharer and dies at zero.
     */
    void removeSharer(Addr line, int core);

    /** Core @p core's copy of @p line became Modified. */
    void setOwner(Addr line, int core);

    /** Core holding @p line Modified, or -1. */
    int owner(Addr line) const;

    /** Exact sharer list of @p line, ascending (audits/tests). */
    std::vector<int> sharers(Addr line) const;

    /** Number of sharers of @p line (0 when untracked). */
    int sharerCount(Addr line) const;

    /** True when @p line's entry is in the overflow representation. */
    bool overflowed(Addr line) const;

    /**
     * The cores a snoop of @p line must visit, ascending, excluding
     * @p requester.  Exact pointers normally; every core when the
     * entry has overflowed (the broadcast the hardware would issue).
     * @return true when the set was exact, false on overflow.
     */
    bool snoopSet(Addr line, int requester,
                  std::vector<int> &out) const;

    /** Live entries. */
    std::size_t size() const { return live_; }
    /** Total entry slots (sets x assoc). */
    std::size_t capacity() const { return slots_.size(); }
    std::size_t sets() const { return sets_; }
    int assoc() const { return assoc_; }
    int pointers() const { return k_; }
    int cores() const { return nCores_; }

    const Stats &stats() const { return stats_; }

    /** Snapshot of every live entry, unordered (audits/tests). */
    std::vector<Entry> entries() const;

  private:
    enum : std::uint8_t { kValid = 1, kOverflow = 2 };

    struct Slot {
        Addr line = 0;
        std::uint64_t lastUse = 0;
        std::int32_t count = 0;
        std::int16_t owner = -1;
        std::uint8_t flags = 0;
    };

    static std::size_t hashLine(Addr line);
    std::size_t setIndex(Addr line) const;

    const Slot *find(Addr line) const;
    Slot *find(Addr line);

    /** The slot's exact-pointer storage (k int16 core ids). */
    std::int16_t *ptrsOf(Slot &s);
    const std::int16_t *ptrsOf(const Slot &s) const;

    /** Overflow bitset of @p line (must be overflowed). */
    std::vector<std::uint64_t> &wideOf(Addr line);

    void freeSlot(Slot &s);

    std::size_t sets_;
    int assoc_;
    int k_;
    int nCores_;
    std::uint64_t useClock_ = 0;
    std::size_t live_ = 0;
    std::vector<Slot> slots_;        ///< sets_ * assoc_, set-major
    std::vector<std::int16_t> ptrs_; ///< sets_ * assoc_ * k_
    /** Exact sharer bitsets of overflowed entries only. */
    std::unordered_map<Addr, std::vector<std::uint64_t>> wide_;
    Stats stats_;
};

} // namespace archsim

#endif // ARCHSIM_CACHE_SPARSEDIR_HH
