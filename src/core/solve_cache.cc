/**
 * @file
 * Memoized solve cache implementation.
 */

#include "core/solve_cache.hh"

#include <cstdio>

#include "obs/build_info.hh"
#include "obs/registry.hh"
#include "util/atomic_file.hh"
#include "util/record.hh"

namespace cactid {

namespace {

constexpr const char *kCacheHeader = "cactid-cache-v2";

// Each persisted struct's fields, listed once: the same template
// writes them through a RecordWriter and reads them back through a
// RecordReader (util/record.hh).  The order is the cactid-cache-v2
// byte layout.

template <class Io, class B>
void
bankFields(Io &io, B &b)
{
    io(b.part.rowsPerSubarray)(b.part.colsPerSubarray)(b.part.blMux)
      (b.part.samMux)(b.nMats)(b.gridX)(b.gridY)(b.nActiveMats)
      (b.width)(b.height)(b.area)(b.areaEfficiency)(b.accessTime)
      (b.randomCycle)(b.interleaveCycle)(b.tRcd)(b.tCas)(b.tRp)
      (b.tRas)(b.tRc)(b.tRrd)(b.readEnergy)(b.writeEnergy)
      (b.activateEnergy)(b.readBurstEnergy)(b.writeBurstEnergy)
      (b.leakage)(b.refreshPower)(b.feasible);
}

template <class Io, class S>
void
solutionFields(Io &io, S &s)
{
    io(s.hasTag)(s.totalArea)(s.bankArea)(s.areaEfficiency)
      (s.accessTime)(s.randomCycle)(s.interleaveCycle)(s.readEnergy)
      (s.writeEnergy)(s.leakage)(s.refreshPower)(s.tRcd)(s.tCas)
      (s.tRp)(s.tRas)(s.tRc)(s.tRrd)(s.activateEnergy)
      (s.readBurstEnergy)(s.writeBurstEnergy)(s.nSubbanks)
      (s.objective);
    bankFields(io, s.data);
    bankFields(io, s.tag);
}

template <class Io, class S>
void
engineStatsFields(Io &io, S &st)
{
    io(st.partitionsEnumerated)(st.partitionsInfeasible)
      (st.solutionsBuilt)(st.areaPruned)(st.timePruned)
      (st.peakLiveSolutions)(st.jobsUsed)(st.setupSeconds)
      (st.evaluateSeconds)(st.filterSeconds)(st.totalSeconds);
}

/** A record's fields after its identity (build stamp, key) lines. */
template <class Io, class R>
void
resultFields(Io &io, R &res)
{
    engineStatsFields(io.line("stats"), res.stats);
    solutionFields(io.line("best"), res.best);
    io.list("filtered", "s", res.filtered, [](auto &s_io, auto &s) {
        solutionFields(s_io, s);
    });
}

/** Approximate resident size of one cache entry. */
std::size_t
entryBytes(const std::string &key, const SolveResult &res)
{
    // Key bytes + one Solution per stored element (best counts as
    // one) + a fixed allowance for the list/map node bookkeeping.
    return key.size() + (res.filtered.size() + 1) * sizeof(Solution) +
           128;
}

} // namespace

SolveCache::SolveCache(SolveCacheConfig cfg) : cfg_(std::move(cfg))
{
    stamp_ = cfg_.buildStamp.empty() ? obs::buildStamp()
                                     : cfg_.buildStamp;
    if (!cfg_.diskDir.empty())
        util::ensureDirectory(cfg_.diskDir, "cache directory");
}

bool
SolveCache::lookup(const ConfigFingerprint &fp, const std::string &key,
                   SolveResult &out)
{
    {
        std::lock_guard<std::mutex> lock(mtx_);
        const auto it = index_.find(fp.lo);
        if (it != index_.end()) {
            Entry &e = *it->second;
            if (e.fp == fp && e.key == key) {
                lru_.splice(lru_.begin(), lru_, it->second);
                out = e.res;
                hits_.fetch_add(1, std::memory_order_relaxed);
                return true;
            }
        }
    }
    if (!cfg_.diskDir.empty() && diskLookup(fp, key, out)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        diskHits_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

bool
SolveCache::diskLookup(const ConfigFingerprint &fp,
                       const std::string &key, SolveResult &out)
{
    const std::string path = recordPath(fp);
    std::string bytes;
    if (!util::readFile(path, bytes))
        return false; // a missing record is a plain miss
    SolveResult res;
    std::string why;
    if (decodeRecord(bytes, fp, key, res, &why) != Load::Loaded) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        warnOnce("rejected cache record " + path + ": " + why);
        return false;
    }
    {
        std::lock_guard<std::mutex> lock(mtx_);
        storeLocked(fp, key, res);
    }
    out = std::move(res);
    return true;
}

void
SolveCache::storeLocked(const ConfigFingerprint &fp,
                        const std::string &key, const SolveResult &res)
{
    const auto it = index_.find(fp.lo);
    if (it != index_.end()) {
        bytes_ -= it->second->bytes;
        lru_.erase(it->second);
        index_.erase(it);
    }
    Entry e;
    e.fp = fp;
    e.key = key;
    e.res = res;
    e.bytes = entryBytes(key, res);
    bytes_ += e.bytes;
    lru_.push_front(std::move(e));
    index_[fp.lo] = lru_.begin();
    // Enforce the bounds, never evicting the sole entry (a single
    // oversized result is still worth memoizing).
    while (lru_.size() > 1 &&
           (lru_.size() > cfg_.maxEntries || bytes_ > cfg_.maxBytes)) {
        const Entry &victim = lru_.back();
        bytes_ -= victim.bytes;
        index_.erase(victim.fp.lo);
        lru_.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
SolveCache::insert(const ConfigFingerprint &fp, const std::string &key,
                   const SolveResult &res)
{
    {
        std::lock_guard<std::mutex> lock(mtx_);
        storeLocked(fp, key, res);
    }
    inserts_.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.diskDir.empty())
        return;
    std::string err;
    if (util::writeFileAtomic(recordPath(fp), encodeRecord(key, res),
                              &err))
        diskWrites_.fetch_add(1, std::memory_order_relaxed);
    else
        warnOnce("cache record write failed: " + err);
}

SolveCacheCounters
SolveCache::counters() const
{
    SolveCacheCounters c;
    c.hits = hits_.load(std::memory_order_relaxed);
    c.misses = misses_.load(std::memory_order_relaxed);
    c.evictions = evictions_.load(std::memory_order_relaxed);
    c.inserts = inserts_.load(std::memory_order_relaxed);
    c.diskHits = diskHits_.load(std::memory_order_relaxed);
    c.diskWrites = diskWrites_.load(std::memory_order_relaxed);
    c.rejected = rejected_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mtx_);
    c.entries = lru_.size();
    c.bytes = bytes_;
    return c;
}

std::string
SolveCache::recordPath(const ConfigFingerprint &fp) const
{
    if (cfg_.diskDir.empty())
        return {};
    return cfg_.diskDir + "/sc-" + fp.hex() + ".v1";
}

std::string
SolveCache::encodeRecord(const std::string &key,
                         const SolveResult &res) const
{
    util::RecordWriter w(kCacheHeader);
    w.text("build", stamp_);
    w.text("key", key);
    resultFields(w, res);
    return w.finish();
}

SolveCache::Load
SolveCache::decodeRecord(const std::string &bytes,
                         const ConfigFingerprint &fp,
                         const std::string &key, SolveResult &out,
                         std::string *why) const
{
    const auto reject = [&](const std::string &reason) {
        if (why)
            *why = reason;
        return Load::Rejected;
    };
    util::RecordReader rd(bytes, kCacheHeader);
    std::string stamp, rec_key;
    rd.text("build", stamp);
    if (rd.ok() && stamp != stamp_)
        return reject("build fingerprint mismatch (record " + stamp +
                      ", binary " + stamp_ + ")");
    rd.text("key", rec_key);
    if (rd.ok() && (rec_key != key || keyFingerprint(rec_key) != fp))
        return reject("canonical key mismatch (alien record)");
    SolveResult res;
    resultFields(rd, res);
    if (!rd.finish())
        return reject(rd.error());
    out = std::move(res);
    return Load::Loaded;
}

void
SolveCache::warnOnce(const std::string &msg)
{
    if (cfg_.onWarn) {
        cfg_.onWarn(msg);
        return;
    }
    if (!warned_.exchange(true))
        std::fprintf(stderr, "cactid: %s\n", msg.c_str());
}

void
registerSolveCacheStats(obs::Registry &r, const SolveCacheCounters &c)
{
    // Every name is written even at zero so enabled-but-unhit caches
    // dump the full label set (shard merges must agree on names).
    r.counter("engine.cache.hits") = c.hits;
    r.counter("engine.cache.misses") = c.misses;
    r.counter("engine.cache.evictions") = c.evictions;
    r.counter("engine.cache.inserts") = c.inserts;
    r.counter("engine.cache.disk_hits") = c.diskHits;
    r.counter("engine.cache.disk_writes") = c.diskWrites;
    r.counter("engine.cache.rejected") = c.rejected;
    r.counter("engine.cache.entries") = c.entries;
    r.counter("engine.cache.bytes") = c.bytes;
}

} // namespace cactid
