/**
 * @file
 * The full cache hierarchy with MESI coherence (paper section 3.3: "A
 * MESI protocol is used for cache coherency").
 *
 * Private per-core L1 I/D and unified L2 caches; an optional shared
 * banked L3 behind the crossbar; main memory behind that.  Coherence
 * is kept at the L2 level (functionally a full-map directory); L1s
 * are inclusive in their L2 and back-invalidated.  Up to
 * kAutoBroadcastCores an L2 miss or write upgrade probes every remote
 * L2 in ascending core id — the broadcast protocol the pinned goldens
 * were captured from.
 *
 * Wider systems use a SparseDirectory (limited-pointer entries +
 * overflow bit, LRU sets) selected by HierarchyParams::dirMode; a
 * sparse directory is a real structure with capacity misses, and
 * evicting a directory entry invalidates its tracked sharers (a
 * protocol-visible difference from broadcast, counted and traced as
 * dir.evict).
 */

#ifndef ARCHSIM_CACHE_COHERENCE_HH
#define ARCHSIM_CACHE_COHERENCE_HH

#include <memory>
#include <optional>
#include <vector>

#include "sim/cache/cache.hh"
#include "sim/cache/llc.hh"
#include "sim/cache/sparsedir.hh"
#include "sim/common.hh"
#include "sim/dram/dram.hh"

namespace archsim {

/** Hierarchy latency/geometry parameters (from CACTI-D, quantized). */
struct HierarchyParams {
    int nCores = 8;
    int lineBytes = 64;

    std::uint64_t l1Bytes = 32 << 10;
    int l1Assoc = 8;
    Cycle l1Cycles = 2;

    std::uint64_t l2Bytes = 1 << 20;
    int l2Assoc = 8;
    Cycle l2Cycles = 3;

    Cycle xbarCycles = 2;   ///< one crossbar traversal
    std::optional<LlcParams> llc; ///< absent for the no-L3 system
    DramParams dram;

    /**
     * Sharer tracking (see DirectoryMode).  Auto broadcasts up to
     * kAutoBroadcastCores — byte-identical to the pinned goldens — and
     * switches to the sparse directory beyond, with a one-time warning.
     */
    DirectoryMode dirMode = DirectoryMode::Auto;
    SparseDirParams dir; ///< sparse-directory geometry
};

/** Which level serviced a request (for cycle attribution). */
enum class ServedBy : std::uint8_t { L1, L2, RemoteL2, L3, Memory };

/** Per-structure access counters consumed by the power model. */
struct HierCounters {
    std::uint64_t l1Reads = 0;
    std::uint64_t l1Writes = 0;
    std::uint64_t l2Reads = 0;
    std::uint64_t l2Writes = 0;
    std::uint64_t l2Misses = 0; ///< demand accesses beyond the L2
    std::uint64_t xbarTransfers = 0;
    std::uint64_t c2cTransfers = 0;
};

/** The memory hierarchy of the simulated chip. */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyParams &p);

    /** Outcome of one timed access. */
    struct Result {
        Cycle latency = 0;
        ServedBy servedBy = ServedBy::L1;
    };

    /**
     * Perform one data or instruction access for @p core.
     *
     * @param core   requesting core id
     * @param addr   byte address
     * @param write  true for stores
     * @param ifetch true for instruction fetches (L1I, read-only)
     * @param now    current cycle
     */
    Result access(int core, Addr addr, bool write, bool ifetch,
                  Cycle now);

    /**
     * MESI state of @p addr in @p core's L2 (probe only; for tests and
     * assertions).
     */
    CState l2State(int core, Addr addr);

    /**
     * Check the MESI invariants for @p addr across all cores: a
     * Modified or Exclusive copy must be the only copy.
     * @return true when the invariants hold
     */
    bool coherent(Addr addr);

    /**
     * Directory equivalence for one line: the sparse directory's exact
     * sharer list and dirty owner must equal what a probe of every
     * core's L2 array rebuilds, and its representation invariants
     * must hold (overflow implies at least 2 sharers, exact implies at
     * most `pointers`).  Always true without a directory (nothing to
     * audit).
     */
    bool directoryConsistent(Addr addr) const;

    /**
     * Full directory audit: every valid L2 line is a directory entry
     * and every directory entry matches the arrays.  O(total L2
     * lines); for the stress tests, never the hot path.
     */
    bool directoryConsistent() const;

    /** The sparse directory (nullptr unless it is active). */
    const SparseDirectory *sparseDir() const { return sdir_.get(); }

    /**
     * True when DirectoryMode::Auto resolved to the sparse directory
     * (nCores > kAutoBroadcastCores without an explicit mode) —
     * surfaced as the sim.dir.implicit_sparse obs counter and a
     * one-time warning.
     */
    bool implicitSparse() const { return implicitSparse_; }

    const HierCounters &counters() const { return counters_; }
    const DramCounters &dramCounters() const { return mem_.counters(); }
    MemorySystem &memory() { return mem_; }
    const Llc *llc() const { return llc_.get(); }
    const HierarchyParams &params() const { return p_; }

    /**
     * Attach an event trace ring (simulated-cycle clock domain);
     * forwards to the DRAM model.  nullptr detaches.
     */
    void
    setTrace(obs::TraceBuffer *trace)
    {
        trace_ = trace;
        mem_.setTrace(trace);
    }

    /**
     * Attach a latency recorder: demand-access latency by serving
     * level here, queueing detail in the Llc and MemorySystem it is
     * forwarded to.  nullptr detaches.
     */
    void setLatency(LatencyStats *lat);

  private:
    /** Fetch a line into the shared levels; returns added latency. */
    Cycle fetchFromBeyondL2(int core, Addr line, bool write, Cycle now,
                            ServedBy &served);

    /** Install into L2+L1, handling inclusion victims. */
    void fillL2(int core, Addr line, CState st, Cycle now);
    void fillL1(SetAssocCache &l1, int core, Addr line, CState st);

    /** Evict a dirty L2 line toward L3 / memory. */
    void writebackFromL2(Addr line, Cycle now);

    /** Drop @p line from core @p o's L2 + L1s, directory included. */
    void invalidateCore(int o, Addr line);

    /**
     * Ensure a sparse-directory entry for @p line, invalidating (and
     * writing back Modified copies of) the tracked sharers of any
     * entry the allocation evicts.
     */
    void sdirAllocate(Addr line, Cycle now);

    HierarchyParams p_;
    std::vector<SetAssocCache> l1i_;
    std::vector<SetAssocCache> l1d_;
    std::vector<SetAssocCache> l2_;
    std::unique_ptr<SparseDirectory> sdir_;
    std::unique_ptr<Llc> llc_;
    MemorySystem mem_;
    HierCounters counters_;
    obs::TraceBuffer *trace_ = nullptr;
    LatencyStats *lat_ = nullptr;
    bool implicitSparse_ = false;
    std::vector<int> snoopScratch_; ///< snoopSet() reuse (no hot allocs)
};

} // namespace archsim

#endif // ARCHSIM_CACHE_COHERENCE_HH
