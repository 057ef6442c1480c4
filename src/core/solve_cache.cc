/**
 * @file
 * Memoized solve cache implementation.
 */

#include "core/solve_cache.hh"

#include <cstdio>

#include <sys/stat.h>

#include "obs/build_info.hh"
#include "obs/registry.hh"
#include "util/atomic_file.hh"
#include "util/hash.hh"
#include "util/record.hh"

namespace cactid {

namespace {

constexpr const char *kCacheHeader = "cactid-cache-v1";

// Each persisted struct's fields, listed once: the same template
// writes them through a RecordWriter and reads them back through a
// RecordReader (util/record.hh).  The order is the cactid-cache-v1
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
template <class Io, class R, class B>
void
resultFields(Io &io, R &res, B &has_all)
{
    io.line("hasall")(has_all);
    engineStatsFields(io.line("stats"), res.stats);
    solutionFields(io.line("best"), res.best);
    const auto solution = [](auto &s_io, auto &s) {
        solutionFields(s_io, s);
    };
    io.list("filtered", "s", res.filtered, solution);
    io.list("all", "s", res.all, solution);
}

/** Approximate resident size of one cache entry. */
std::size_t
entryBytes(const std::string &key, const SolveResult &res)
{
    // Key bytes + one Solution per stored element (best counts as
    // one) + a fixed allowance for the list/map node bookkeeping.
    return key.size() +
           (res.filtered.size() + res.all.size() + 1) *
               sizeof(Solution) +
           128;
}

} // namespace

SolveCache::SolveCache(SolveCacheConfig cfg) : cfg_(std::move(cfg))
{
    stamp_ = cfg_.buildStamp.empty() ? defaultBuildStamp()
                                     : cfg_.buildStamp;
    const int n_shards = cfg_.shards < 1 ? 1 : cfg_.shards;
    shards_.reserve(static_cast<std::size_t>(n_shards));
    for (int i = 0; i < n_shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
    const std::size_t n = shards_.size();
    maxEntriesPerShard_ =
        cfg_.maxEntries / n > 0 ? cfg_.maxEntries / n : 1;
    maxBytesPerShard_ = cfg_.maxBytes / n > 0 ? cfg_.maxBytes / n : 1;
    if (!cfg_.diskDir.empty())
        ::mkdir(cfg_.diskDir.c_str(), 0755); // EEXIST is fine
}

std::string
SolveCache::defaultBuildStamp()
{
    const obs::BuildInfo &b = obs::buildInfo();
    std::string s = "cactid-build|" + b.gitDescribe + "|" +
                    b.compiler + "|" + b.flags + "|" + b.buildType +
                    "|" + (b.tracingCompiled ? "trace" : "notrace");
    return util::hex16(util::fnv1a64(s));
}

SolveCache::Shard &
SolveCache::shardFor(const ConfigFingerprint &fp)
{
    return *shards_[(fp.lo ^ fp.hi) % shards_.size()];
}

bool
SolveCache::lookup(const ConfigFingerprint &fp, const std::string &key,
                   bool want_all, SolveResult &out)
{
    Shard &sh = shardFor(fp);
    {
        std::lock_guard<std::mutex> lock(sh.mtx);
        const auto it = sh.index.find(fp.lo);
        if (it != sh.index.end()) {
            Entry &e = *it->second;
            if (e.fp == fp && e.key == key &&
                (e.hasAll || !want_all)) {
                sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
                out = e.res;
                if (!want_all)
                    out.all.clear();
                hits_.fetch_add(1, std::memory_order_relaxed);
                return true;
            }
        }
    }
    if (!cfg_.diskDir.empty() &&
        diskLookup(fp, key, want_all, out)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        diskHits_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

bool
SolveCache::diskLookup(const ConfigFingerprint &fp,
                       const std::string &key, bool want_all,
                       SolveResult &out)
{
    const std::string path = recordPath(fp);
    std::string bytes;
    if (!util::readFile(path, bytes))
        return false; // a missing record is a plain miss
    SolveResult res;
    bool has_all = false;
    std::string why;
    if (decodeRecord(bytes, fp, key, res, has_all, &why) !=
        Load::Loaded) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        warnOnce("rejected cache record " + path + ": " + why);
        return false;
    }
    if (!has_all && want_all)
        return false; // memoized without `all`; must re-solve
    {
        Shard &sh = shardFor(fp);
        std::lock_guard<std::mutex> lock(sh.mtx);
        storeLocked(sh, fp, key, res, has_all);
    }
    out = std::move(res);
    if (!want_all)
        out.all.clear();
    return true;
}

void
SolveCache::storeLocked(Shard &sh, const ConfigFingerprint &fp,
                        const std::string &key, const SolveResult &res,
                        bool has_all)
{
    const auto it = sh.index.find(fp.lo);
    if (it != sh.index.end()) {
        sh.bytes -= it->second->bytes;
        sh.lru.erase(it->second);
        sh.index.erase(it);
    }
    Entry e;
    e.fp = fp;
    e.key = key;
    e.res = res;
    e.hasAll = has_all;
    e.bytes = entryBytes(key, res);
    sh.bytes += e.bytes;
    sh.lru.push_front(std::move(e));
    sh.index[fp.lo] = sh.lru.begin();
    // Enforce the per-shard bounds, never evicting the sole entry (a
    // single oversized result is still worth memoizing).
    while (sh.lru.size() > 1 &&
           (sh.lru.size() > maxEntriesPerShard_ ||
            sh.bytes > maxBytesPerShard_)) {
        const Entry &victim = sh.lru.back();
        sh.bytes -= victim.bytes;
        sh.index.erase(victim.fp.lo);
        sh.lru.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
SolveCache::insert(const ConfigFingerprint &fp, const std::string &key,
                   const SolveResult &res, bool has_all)
{
    {
        Shard &sh = shardFor(fp);
        std::lock_guard<std::mutex> lock(sh.mtx);
        storeLocked(sh, fp, key, res, has_all);
    }
    inserts_.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.diskDir.empty())
        return;
    std::string err;
    if (util::writeFileAtomic(recordPath(fp),
                              encodeRecord(key, res, has_all), &err))
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
    for (const auto &sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mtx);
        c.entries += sh->lru.size();
        c.bytes += sh->bytes;
    }
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
                         const SolveResult &res, bool has_all) const
{
    util::RecordWriter w(kCacheHeader);
    w.text("build", stamp_);
    w.text("key", key);
    resultFields(w, res, has_all);
    return w.finish();
}

SolveCache::Load
SolveCache::decodeRecord(const std::string &bytes,
                         const ConfigFingerprint &fp,
                         const std::string &key, SolveResult &out,
                         bool &has_all, std::string *why) const
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
    bool all = false;
    resultFields(rd, res, all);
    if (!rd.finish())
        return reject(rd.error());
    has_all = all;
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

namespace {
std::atomic<SolveCache *> g_cache{nullptr};
} // namespace

SolveCache *
globalSolveCache()
{
    return g_cache.load(std::memory_order_acquire);
}

void
setGlobalSolveCache(SolveCache *cache)
{
    g_cache.store(cache, std::memory_order_release);
}

} // namespace cactid
