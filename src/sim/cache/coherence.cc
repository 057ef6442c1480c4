/**
 * @file
 * MESI cache hierarchy implementation.
 *
 * When a sparse directory is active, every L2 mutation below (fills,
 * evictions, invalidations, M transitions) updates it in the same
 * statement block.  Without one, an L2 miss or write upgrade probes
 * every remote L2 in ascending core id; the directory's snoop set is
 * walked in the same order.
 */

#include "sim/cache/coherence.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "sim/latency.hh"

namespace archsim {

namespace {

[[maybe_unused]] const char *
stateName(CState s)
{
    switch (s) {
      case CState::Modified:
        return "M";
      case CState::Exclusive:
        return "E";
      case CState::Shared:
        return "S";
      case CState::Invalid:
        return "I";
    }
    return "?";
}

[[maybe_unused]] const char *
servedName(ServedBy s)
{
    switch (s) {
      case ServedBy::L1:
        return "req.l1";
      case ServedBy::L2:
        return "req.l2";
      case ServedBy::RemoteL2:
        return "req.remote_l2";
      case ServedBy::L3:
        return "req.l3";
      case ServedBy::Memory:
        return "req.mem";
    }
    return "req";
}

} // namespace

CacheHierarchy::CacheHierarchy(const HierarchyParams &p)
    : p_(p), mem_(p.dram)
{
    for (int c = 0; c < p.nCores; ++c) {
        l1i_.emplace_back(p.l1Bytes, p.l1Assoc, p.lineBytes);
        l1d_.emplace_back(p.l1Bytes, p.l1Assoc, p.lineBytes);
        l2_.emplace_back(p.l2Bytes, p.l2Assoc, p.lineBytes);
    }
    // Worst-case live line count: every L2 line valid at once.
    const std::size_t live = std::size_t(p.nCores) *
                             (p.l2Bytes / std::uint64_t(p.lineBytes));
    switch (p.dirMode) {
      case DirectoryMode::Auto:
        if (p.nCores > kAutoBroadcastCores) {
            // Switching protocols implicitly deserves a heads-up: once
            // per process, plus a per-run counter.
            sdir_ = std::make_unique<SparseDirectory>(p.nCores, p.dir,
                                                      live);
            implicitSparse_ = true;
            static std::atomic<bool> warned{false};
            if (!warned.exchange(true)) {
                std::fprintf(stderr,
                             "archsim: %d cores exceed the broadcast "
                             "limit (%d); using a sparse directory (%zu "
                             "sets x %d ways x %d pointers). Set "
                             "DirectoryMode explicitly to silence "
                             "this.\n",
                             p.nCores, kAutoBroadcastCores, sdir_->sets(),
                             sdir_->assoc(), sdir_->pointers());
            }
        }
        break;
      case DirectoryMode::Broadcast:
        break;
      case DirectoryMode::Sparse:
        sdir_ = std::make_unique<SparseDirectory>(p.nCores, p.dir, live);
        break;
    }
    if (p.llc)
        llc_ = std::make_unique<Llc>(*p.llc);
}

void
CacheHierarchy::fillL1(SetAssocCache &l1, int core, Addr line, CState st)
{
    const SetAssocCache::Victim v = l1.insert(line, st);
    if (v.valid && v.state == CState::Modified) {
        // L1 dirty victim folds into the (inclusive) L2 copy.
        if (SetAssocCache::Line *l = l2_[core].probe(v.addr)) {
            l->setState(CState::Modified);
            if (sdir_)
                sdir_->setOwner(v.addr, core);
        }
    }
}

void
CacheHierarchy::writebackFromL2(Addr line, Cycle now)
{
    if (llc_) {
        ++counters_.xbarTransfers;
        llc_->writeback(line, now);
    } else {
        mem_.access(line, true, now);
    }
}

void
CacheHierarchy::sdirAllocate(Addr line, Cycle now)
{
    const SparseDirectory::Victim dv = sdir_->allocate(line);
    if (!dv.valid)
        return;
    // A directory entry was evicted: the directory is the only record
    // of who holds that line, so every tracked sharer must give up its
    // copy (ascending id, like every other snoop walk).  A Modified
    // copy is written back first — dropping it would lose the data.
    OBS_EVENT(trace_, .name = "dir.evict", .cat = "dir", .ph = 'i',
              .ts = now, .argName = "line", .argValue = dv.line,
              .argStrName = "repr", .argStr = dv.overflow ? "all" : "ptr");
    for (int o : dv.sharers) {
        if (SetAssocCache::Line *l = l2_[o].probe(dv.line)) {
            if (l->state() == CState::Modified)
                writebackFromL2(dv.line, now);
        }
        invalidateCore(o, dv.line);
    }
}

void
CacheHierarchy::fillL2(int core, Addr line, CState st, Cycle now)
{
    ++counters_.l2Writes;
    if (sdir_)
        sdirAllocate(line, now);
    const SetAssocCache::Victim v = l2_[core].insert(line, st);
    if (sdir_) {
        if (sdir_->addSharer(line, core)) {
            OBS_EVENT(trace_, .name = "dir.overflow", .cat = "dir",
                      .ph = 'i', .ts = now,
                      .tid = std::uint32_t(core),
                      .argName = "line", .argValue = line);
        }
        if (st == CState::Modified)
            sdir_->setOwner(line, core);
    }
    if (v.valid) {
        // Inclusion: the L1s may not keep a line the L2 dropped.
        if (sdir_)
            sdir_->removeSharer(v.addr, core);
        l1i_[core].invalidate(v.addr);
        l1d_[core].invalidate(v.addr);
        if (v.state == CState::Modified)
            writebackFromL2(v.addr, now);
    }
}

void
CacheHierarchy::invalidateCore(int o, Addr line)
{
    l2_[o].invalidate(line);
    if (sdir_)
        sdir_->removeSharer(line, o);
    l1i_[o].invalidate(line);
    l1d_[o].invalidate(line);
}

Cycle
CacheHierarchy::fetchFromBeyondL2(int core, Addr line, bool write,
                                  Cycle now, ServedBy &served)
{
    // --- Snoop the sharers' L2s (MESI).
    int dirty_owner = -1;
    bool shared_elsewhere = false;
    const auto snoopOne = [&](int o) {
        if (SetAssocCache::Line *l = l2_[o].probe(line)) {
            shared_elsewhere = true;
            if (l->state() == CState::Modified)
                dirty_owner = o;
            if (write || l->state() == CState::Modified) {
                // Invalidate on write; an M owner also loses the line
                // on a read in this forwarding implementation (M -> I
                // with the L3/memory copy refreshed).
                OBS_EVENT(trace_, .name = "mesi.inval", .cat = "mesi",
                          .ph = 'i', .ts = now, .tid = std::uint32_t(o),
                          .argName = "line", .argValue = line,
                          .argStrName = "from",
                          .argStr = stateName(l->state()));
                invalidateCore(o, line);
            } else {
                // Downgrade to Shared -- including the L1 copies, or a
                // stale Exclusive L1 line would later accept a silent
                // store alongside the new sharers.
                if (l->state() != CState::Shared) {
                    OBS_EVENT(trace_, .name = "mesi.downgrade",
                              .cat = "mesi", .ph = 'i', .ts = now,
                              .tid = std::uint32_t(o),
                              .argName = "line", .argValue = line,
                              .argStrName = "from",
                              .argStr = stateName(l->state()));
                }
                l->setState(CState::Shared);
                if (SetAssocCache::Line *d = l1d_[o].probe(line))
                    d->setState(CState::Shared);
                if (SetAssocCache::Line *i = l1i_[o].probe(line))
                    i->setState(CState::Shared);
            }
        }
    };
    if (sdir_) {
        // The directory's snoop set: exact pointers normally, every
        // core when the entry overflowed.  Ascending either way.
        sdir_->snoopSet(line, core, snoopScratch_);
        for (int o : snoopScratch_)
            snoopOne(o);
    } else {
        for (int o = 0; o < p_.nCores; ++o) {
            if (o != core)
                snoopOne(o);
        }
    }

    Cycle lat = 0;
    if (dirty_owner >= 0) {
        // Cache-to-cache forward through the crossbar, refreshing the
        // L3 copy on the way.
        OBS_EVENT(trace_, .name = "mesi.c2c", .cat = "mesi", .ph = 'i',
                  .ts = now, .tid = std::uint32_t(dirty_owner),
                  .argName = "line", .argValue = line);
        ++counters_.c2cTransfers;
        counters_.xbarTransfers += 2;
        ++counters_.l2Reads; // remote array read
        lat = p_.xbarCycles + p_.l2Cycles + p_.xbarCycles;
        if (llc_)
            llc_->markDirty(line);
        else
            mem_.access(line, true, now + lat);
        served = ServedBy::RemoteL2;
        fillL2(core, line, write ? CState::Modified : CState::Shared,
               now + lat);
        return lat;
    }

    // --- L3 (if present).
    if (llc_) {
        ++counters_.xbarTransfers;
        const Llc::Access a = llc_->lookup(line, false, now);
        lat = p_.xbarCycles + a.latency + p_.xbarCycles;
        ++counters_.xbarTransfers;
        if (a.hit) {
            served = ServedBy::L3;
        } else {
            // Fetch from memory and fill the L3.
            const Cycle mem_lat = mem_.access(line, false, now + lat);
            lat += mem_lat;
            const SetAssocCache::Victim v =
                llc_->fill(line, false, now + lat);
            if (v.valid && v.state == CState::Modified)
                mem_.access(v.addr, true, now + lat);
            // L3 inclusion of the L2s is not enforced (the L3 is large;
            // the directory is the L2 snoop above).
            served = ServedBy::Memory;
        }
    } else {
        lat = mem_.access(line, false, now);
        served = ServedBy::Memory;
    }

    CState st;
    if (write)
        st = CState::Modified;
    else
        st = shared_elsewhere ? CState::Shared : CState::Exclusive;
    fillL2(core, line, st, now + lat);
    return lat;
}

CState
CacheHierarchy::l2State(int core, Addr addr)
{
    const Addr line = l2_[core].lineAddr(addr);
    SetAssocCache::Line *l = l2_[core].probe(line);
    return l ? l->state() : CState::Invalid;
}

bool
CacheHierarchy::coherent(Addr addr)
{
    int owners = 0;
    int sharers = 0;
    for (int c = 0; c < p_.nCores; ++c) {
        switch (l2State(c, addr)) {
          case CState::Modified:
          case CState::Exclusive:
            ++owners;
            break;
          case CState::Shared:
            ++sharers;
            break;
          case CState::Invalid:
            break;
        }
    }
    // Single-writer: an owner excludes every other copy.
    return owners == 0 || (owners == 1 && sharers == 0);
}

bool
CacheHierarchy::directoryConsistent(Addr addr) const
{
    if (!sdir_)
        return true;
    const Addr line = l2_[0].lineAddr(addr);
    std::vector<int> holders;
    int owner = -1;
    for (int c = 0; c < p_.nCores; ++c) {
        // probe() is non-const only because it refreshes the MRU way
        // hint, which never changes observable behaviour.
        auto &l2 = const_cast<SetAssocCache &>(l2_[c]);
        if (const SetAssocCache::Line *l = l2.probe(line)) {
            holders.push_back(c);
            if (l->state() == CState::Modified)
                owner = c;
        }
    }
    // Exact sharer-set equality (ascending both sides), owner match,
    // and the representation invariants — a pointer-mode entry holds
    // at most `pointers` sharers, and an overflowed entry at least 2
    // (it demotes back to pointers at 1, the only point where the
    // hardware learns the set again — so it may hold fewer than
    // `pointers` sharers after evictions, but never fewer than 2).
    if (sdir_->sharers(line) != holders)
        return false;
    if (sdir_->owner(line) != owner)
        return false;
    const int n = sdir_->sharerCount(line);
    if (sdir_->overflowed(line)) {
        if (n < 2)
            return false;
    } else if (n > sdir_->pointers()) {
        return false;
    }
    return true;
}

bool
CacheHierarchy::directoryConsistent() const
{
    if (!sdir_)
        return true;
    // Arrays -> directory: every valid L2 line must be tracked with
    // the right membership (and M implies ownership).
    std::size_t array_lines = 0;
    bool ok = true;
    for (int c = 0; c < p_.nCores; ++c) {
        l2_[c].forEachValid([&](Addr line, CState st) {
            ++array_lines;
            const std::vector<int> s = sdir_->sharers(line);
            if (!std::binary_search(s.begin(), s.end(), c))
                ok = false;
            if (st == CState::Modified && sdir_->owner(line) != c)
                ok = false;
        });
    }
    if (!ok)
        return false;
    // Directory -> arrays: every entry rebuilds exactly, and the live
    // sharer count matches the array population (no phantom sharers).
    std::size_t dir_count = 0;
    for (const SparseDirectory::Entry &e : sdir_->entries()) {
        dir_count += e.sharers.size();
        if (!directoryConsistent(e.line))
            return false;
    }
    return dir_count == array_lines;
}

void
CacheHierarchy::setLatency(LatencyStats *lat)
{
    lat_ = lat;
    mem_.setLatency(lat);
    if (llc_)
        llc_->setLatency(lat);
}

namespace {

/** Record one demand access into the serving level's histogram. */
void
observeServed(LatencyStats *lat, ServedBy s, Cycle cycles)
{
    if (!lat)
        return;
    cactid::obs::Histogram *h = nullptr;
    switch (s) {
      case ServedBy::L1:
        h = &lat->l1;
        break;
      case ServedBy::L2:
        h = &lat->l2;
        break;
      case ServedBy::RemoteL2:
        h = &lat->remoteL2;
        break;
      case ServedBy::L3:
        h = &lat->l3;
        break;
      case ServedBy::Memory:
        h = &lat->mem;
        break;
    }
    h->observe(double(cycles));
}

} // namespace

CacheHierarchy::Result
CacheHierarchy::access(int core, Addr addr, bool write, bool ifetch,
                       Cycle now)
{
    SetAssocCache &l1 = ifetch ? l1i_[core] : l1d_[core];
    const Addr line = l1.lineAddr(addr);
    Result r;

    write ? ++counters_.l1Writes : ++counters_.l1Reads;

    // --- L1.
    if (SetAssocCache::Line *l = l1.find(line)) {
        if (!write || writable(l->state())) {
            if (write)
                l->setState(CState::Modified);
            r.latency = p_.l1Cycles;
            r.servedBy = ServedBy::L1;
            observeServed(lat_, r.servedBy, r.latency);
            return r;
        }
        // Store to a Shared line: upgrade through the L2.
        l->setState(CState::Invalid);
    }

    // --- L2.
    ++counters_.l2Reads;
    if (SetAssocCache::Line *l = l2_[core].find(line)) {
        if (!write || writable(l->state())) {
            if (write) {
                l->setState(CState::Modified);
                if (sdir_)
                    sdir_->setOwner(line, core);
            }
            fillL1(l1, core, line,
                   write ? CState::Modified : l->state());
            r.latency = p_.l1Cycles + p_.l2Cycles;
            r.servedBy = ServedBy::L2;
            observeServed(lat_, r.servedBy, r.latency);
            return r;
        }
        // Write upgrade: invalidate the other sharers (crossbar round).
        OBS_EVENT(trace_, .name = "mesi.upgrade", .cat = "mesi",
                  .ph = 'i', .ts = now, .tid = std::uint32_t(core),
                  .argName = "line", .argValue = line,
                  .argStrName = "from", .argStr = stateName(l->state()));
        if (sdir_) {
            sdir_->snoopSet(line, core, snoopScratch_);
            for (int o : snoopScratch_)
                invalidateCore(o, line);
        } else {
            for (int o = 0; o < p_.nCores; ++o) {
                if (o != core)
                    invalidateCore(o, line);
            }
        }
        counters_.xbarTransfers += 2;
        l->setState(CState::Modified);
        if (sdir_)
            sdir_->setOwner(line, core);
        fillL1(l1, core, line, CState::Modified);
        r.latency = p_.l1Cycles + p_.l2Cycles + 2 * p_.xbarCycles;
        r.servedBy = ServedBy::L2;
        observeServed(lat_, r.servedBy, r.latency);
        return r;
    }

    // --- Beyond the private levels.
    ++counters_.l2Misses;
    ServedBy served = ServedBy::Memory;
    const Cycle beyond = fetchFromBeyondL2(core, line, write, now, served);
    fillL1(l1, core, line, write ? CState::Modified : CState::Shared);
    r.latency = p_.l1Cycles + p_.l2Cycles + beyond;
    r.servedBy = served;
    observeServed(lat_, r.servedBy, r.latency);
    // Start/complete record of every request that left the private
    // levels (L1/L2 hits are too hot to trace individually).
    OBS_EVENT(trace_, .name = servedName(served), .cat = "mem",
              .ph = 'X', .ts = now, .dur = r.latency,
              .tid = std::uint32_t(core), .argName = "line",
              .argValue = line);
    return r;
}

} // namespace archsim
