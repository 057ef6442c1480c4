#include "sim/cache/sparsedir.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace archsim {

namespace {

bool isPow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::size_t ceilPow2(std::size_t v)
{
    std::size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

SparseDirectory::SparseDirectory(int n_cores, const SparseDirParams &p,
                                 std::size_t expected_lines)
    : sets_(p.sets), assoc_(p.assoc), k_(p.pointers), nCores_(n_cores)
{
    if (n_cores < 1 || n_cores > kMaxCores)
        throw std::invalid_argument(
            "SparseDirectory: n_cores must be in 1.." +
            std::to_string(kMaxCores) + ", got " + std::to_string(n_cores));
    if (assoc_ < 1)
        throw std::invalid_argument(
            "SparseDirectory: assoc must be >= 1, got " +
            std::to_string(assoc_));
    if (k_ < 1)
        throw std::invalid_argument(
            "SparseDirectory: pointers must be >= 1, got " +
            std::to_string(k_));
    if (sets_ == 0) {
        // Cover twice the aggregate L2 line count.  Hashed sets still
        // fill unevenly, so set-conflict evictions remain at this size
        // (see SparseDirParams::sets).
        std::size_t want = (2 * std::max<std::size_t>(expected_lines, 1) +
                            static_cast<std::size_t>(assoc_) - 1) /
                           static_cast<std::size_t>(assoc_);
        sets_ = ceilPow2(std::max<std::size_t>(want, 1));
    } else if (!isPow2(sets_)) {
        throw std::invalid_argument(
            "SparseDirectory: sets must be a power of two, got " +
            std::to_string(sets_));
    }
    slots_.resize(sets_ * static_cast<std::size_t>(assoc_));
    ptrs_.assign(slots_.size() * static_cast<std::size_t>(k_), -1);
}

std::size_t
SparseDirectory::hashLine(Addr line)
{
    // 64-bit finalizer mix (MurmurHash3 fmix64).
    std::uint64_t x = line;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
}

std::size_t
SparseDirectory::setIndex(Addr line) const
{
    return hashLine(line) & (sets_ - 1);
}

const SparseDirectory::Slot *
SparseDirectory::find(Addr line) const
{
    const std::size_t base = setIndex(line) * static_cast<std::size_t>(assoc_);
    for (int w = 0; w < assoc_; ++w) {
        const Slot &s = slots_[base + static_cast<std::size_t>(w)];
        if ((s.flags & kValid) && s.line == line)
            return &s;
    }
    return nullptr;
}

SparseDirectory::Slot *
SparseDirectory::find(Addr line)
{
    return const_cast<Slot *>(
        static_cast<const SparseDirectory *>(this)->find(line));
}

std::int16_t *
SparseDirectory::ptrsOf(Slot &s)
{
    const std::size_t idx = static_cast<std::size_t>(&s - slots_.data());
    return ptrs_.data() + idx * static_cast<std::size_t>(k_);
}

const std::int16_t *
SparseDirectory::ptrsOf(const Slot &s) const
{
    const std::size_t idx = static_cast<std::size_t>(&s - slots_.data());
    return ptrs_.data() + idx * static_cast<std::size_t>(k_);
}

std::vector<std::uint64_t> &
SparseDirectory::wideOf(Addr line)
{
    auto it = wide_.find(line);
    if (it == wide_.end()) {
        it = wide_.emplace(line, std::vector<std::uint64_t>(
                                     (static_cast<std::size_t>(nCores_) + 63) /
                                     64)).first;
    }
    return it->second;
}

void
SparseDirectory::freeSlot(Slot &s)
{
    if (s.flags & kOverflow)
        wide_.erase(s.line);
    std::fill_n(ptrsOf(s), k_, static_cast<std::int16_t>(-1));
    s = Slot{};
    --live_;
}

SparseDirectory::Victim
SparseDirectory::allocate(Addr line)
{
    Victim v;
    if (find(line) != nullptr)
        return v;

    const std::size_t base = setIndex(line) * static_cast<std::size_t>(assoc_);
    Slot *dest = nullptr;
    Slot *lru = nullptr;
    for (int w = 0; w < assoc_; ++w) {
        Slot &s = slots_[base + static_cast<std::size_t>(w)];
        if (!(s.flags & kValid)) {
            if (!dest)
                dest = &s;
        } else if (!lru || s.lastUse < lru->lastUse) {
            lru = &s;
        }
    }
    if (!dest) {
        // Set is full: evict the LRU entry.  Its tracked sharers must
        // be invalidated by the caller — the directory is the only
        // record of who holds the line.
        v.valid = true;
        v.line = lru->line;
        v.sharers = sharers(lru->line);
        v.overflow = (lru->flags & kOverflow) != 0;
        v.owner = lru->owner;
        ++stats_.evictions;
        stats_.evictionInvals += v.sharers.size();
        freeSlot(*lru);
        dest = lru;
    }
    dest->line = line;
    dest->lastUse = ++useClock_;
    dest->count = 0;
    dest->owner = -1;
    dest->flags = kValid;
    ++live_;
    if (live_ > stats_.peakLive)
        stats_.peakLive = live_;
    return v;
}

bool
SparseDirectory::addSharer(Addr line, int core)
{
    Slot *s = find(line);
    if (!s)
        throw std::logic_error(
            "SparseDirectory::addSharer: no entry for line (allocate first)");
    s->lastUse = ++useClock_;
    if (s->flags & kOverflow) {
        auto &bits = wideOf(line);
        std::uint64_t &word = bits[static_cast<std::size_t>(core) / 64];
        const std::uint64_t bit = 1ULL << (core % 64);
        if (!(word & bit)) {
            word |= bit;
            ++s->count;
        }
        return false;
    }
    std::int16_t *p = ptrsOf(*s);
    for (int i = 0; i < s->count; ++i)
        if (p[i] == core)
            return false;
    if (s->count < k_) {
        // Keep the pointer list sorted: snoops walk sharers in
        // ascending core id, matching the broadcast probe order.
        int i = s->count;
        while (i > 0 && p[i - 1] > core) {
            p[i] = p[i - 1];
            --i;
        }
        p[i] = static_cast<std::int16_t>(core);
        ++s->count;
        return false;
    }
    // (k+1)-th distinct sharer: promote to the overflow representation.
    auto &bits = wideOf(line);
    for (int i = 0; i < s->count; ++i)
        bits[static_cast<std::size_t>(p[i]) / 64] |= 1ULL << (p[i] % 64);
    bits[static_cast<std::size_t>(core) / 64] |= 1ULL << (core % 64);
    std::fill_n(p, k_, static_cast<std::int16_t>(-1));
    ++s->count;
    s->flags |= kOverflow;
    ++stats_.overflows;
    return true;
}

void
SparseDirectory::removeSharer(Addr line, int core)
{
    Slot *s = find(line);
    if (!s)
        return;
    if (s->flags & kOverflow) {
        auto &bits = wideOf(line);
        std::uint64_t &word = bits[static_cast<std::size_t>(core) / 64];
        const std::uint64_t bit = 1ULL << (core % 64);
        if (!(word & bit))
            return;
        word &= ~bit;
        --s->count;
        if (s->owner == core)
            s->owner = -1;
        if (s->count == 0) {
            freeSlot(*s);
            return;
        }
        if (s->count == 1) {
            // The set is small enough to name exactly again: demote
            // back to pointer mode.
            std::int16_t *p = ptrsOf(*s);
            int n = 0;
            for (std::size_t w = 0; w < bits.size(); ++w) {
                std::uint64_t word2 = bits[w];
                while (word2) {
                    const int b = __builtin_ctzll(word2);
                    word2 &= word2 - 1;
                    p[n++] = static_cast<std::int16_t>(w * 64 +
                                                       static_cast<std::size_t>(b));
                }
            }
            wide_.erase(line);
            s->flags &= static_cast<std::uint8_t>(~kOverflow);
            ++stats_.demotions;
        }
        return;
    }
    std::int16_t *p = ptrsOf(*s);
    for (int i = 0; i < s->count; ++i) {
        if (p[i] == core) {
            for (int j = i + 1; j < s->count; ++j)
                p[j - 1] = p[j];
            p[--s->count] = -1;
            if (s->owner == core)
                s->owner = -1;
            if (s->count == 0)
                freeSlot(*s);
            return;
        }
    }
}

void
SparseDirectory::setOwner(Addr line, int core)
{
    Slot *s = find(line);
    if (!s)
        return;
    s->owner = static_cast<std::int16_t>(core);
    s->lastUse = ++useClock_;
}

int
SparseDirectory::owner(Addr line) const
{
    const Slot *s = find(line);
    return s ? s->owner : -1;
}

std::vector<int>
SparseDirectory::sharers(Addr line) const
{
    std::vector<int> out;
    const Slot *s = find(line);
    if (!s)
        return out;
    out.reserve(static_cast<std::size_t>(s->count));
    if (s->flags & kOverflow) {
        const auto it = wide_.find(line);
        const auto &bits = it->second;
        for (std::size_t w = 0; w < bits.size(); ++w) {
            std::uint64_t word = bits[w];
            while (word) {
                const int b = __builtin_ctzll(word);
                word &= word - 1;
                out.push_back(static_cast<int>(w * 64) + b);
            }
        }
    } else {
        const std::int16_t *p = ptrsOf(*s);
        for (int i = 0; i < s->count; ++i)
            out.push_back(p[i]);
    }
    return out;
}

int
SparseDirectory::sharerCount(Addr line) const
{
    const Slot *s = find(line);
    return s ? s->count : 0;
}

bool
SparseDirectory::overflowed(Addr line) const
{
    const Slot *s = find(line);
    return s && (s->flags & kOverflow);
}

bool
SparseDirectory::snoopSet(Addr line, int requester,
                          std::vector<int> &out) const
{
    out.clear();
    const Slot *s = find(line);
    if (!s)
        return true;
    if (s->flags & kOverflow) {
        // The hardware only knows "everyone might share": broadcast.
        out.reserve(static_cast<std::size_t>(nCores_ - 1));
        for (int c = 0; c < nCores_; ++c)
            if (c != requester)
                out.push_back(c);
        return false;
    }
    const std::int16_t *p = ptrsOf(*s);
    out.reserve(static_cast<std::size_t>(s->count));
    for (int i = 0; i < s->count; ++i)
        if (p[i] != requester)
            out.push_back(p[i]);
    return true;
}

std::vector<SparseDirectory::Entry>
SparseDirectory::entries() const
{
    std::vector<Entry> out;
    out.reserve(live_);
    for (const Slot &s : slots_) {
        if (!(s.flags & kValid))
            continue;
        Entry e;
        e.line = s.line;
        e.sharers = sharers(s.line);
        e.overflow = (s.flags & kOverflow) != 0;
        e.owner = s.owner;
        out.push_back(std::move(e));
    }
    return out;
}

} // namespace archsim
