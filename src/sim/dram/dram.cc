/**
 * @file
 * Main-memory model implementation.
 */

#include "sim/dram/dram.hh"

#include <algorithm>

#include "sim/latency.hh"

namespace archsim {

MemorySystem::MemorySystem(const DramParams &p) : p_(p)
{
    channels_.resize(p.nChannels);
    for (Channel &c : channels_) {
        c.banks.resize(p.banksPerChannel);
        c.nextRefresh = p.tRefi;
    }
}

void
MemorySystem::refreshUpTo(Channel &ch, [[maybe_unused]] int chIdx,
                          Cycle t)
{
    if (p_.tRefi == 0)
        return;
    while (ch.nextRefresh <= t) {
        // All-bank refresh: every row closes and the banks are busy
        // until the refresh cycle completes.
        const Cycle done = ch.nextRefresh + p_.tRfc;
        OBS_EVENT(trace_, .name = "dram.ref", .cat = "dram", .ph = 'X',
                  .ts = ch.nextRefresh, .dur = p_.tRfc,
                  .tid = std::uint32_t(chIdx));
        for (Bank &b : ch.banks) {
            b.readyAt = std::max(b.readyAt, done);
            b.openRow = -1;
        }
        ch.nextRefresh += p_.tRefi;
        ++counters_.refreshes;
    }
}

Cycle
MemorySystem::access(Addr addr, bool write, Cycle now)
{
    // Line-interleaved channel mapping, page-interleaved bank mapping
    // (consecutive pages in different banks for multibank overlap).
    const std::uint64_t line = addr / p_.lineBytes;
    const int ch_idx = int(line % p_.nChannels);
    Channel &ch = channels_[ch_idx];

    Cycle wake = 0;
    if (p_.powerDown && now > ch.lastUse + p_.powerDownAfter) {
        // The rank dropped CKE after the idle threshold; pay the exit
        // latency and book the powered-down interval.
        wake = p_.tPowerDownExit;
        ++counters_.powerDownEntries;
        counters_.powerDownCycles += now - (ch.lastUse + p_.powerDownAfter);
        OBS_EVENT(trace_, .name = "dram.pd_exit", .cat = "dram", .ph = 'i',
                  .ts = now, .tid = std::uint32_t(ch_idx));
    }
    const std::uint64_t page =
        addr / (p_.pageBytes * std::uint64_t(p_.nChannels));
    Bank &bank = ch.banks[page % p_.banksPerChannel];
    const auto row = std::int64_t(page / p_.banksPerChannel);

    Cycle t = now + p_.tController + wake;
    refreshUpTo(ch, ch_idx, t);

    const bool row_hit =
        p_.policy == PagePolicy::Open && bank.openRow == row;
    bool precharged = false;
    if (row_hit) {
        ++counters_.rowHits;
        t = std::max(t, bank.readyAt);
    } else {
        // Precharge (if a row is open under the open-page policy),
        // then activate, respecting tRC at this bank and tRRD across
        // the rank.
        Cycle act = std::max(t, bank.readyAt);
        if (p_.policy == PagePolicy::Open && bank.openRow >= 0) {
            precharged = true;
            OBS_EVENT(trace_, .name = "dram.pre", .cat = "dram",
                      .ph = 'X', .ts = act, .dur = p_.tRp,
                      .tid = std::uint32_t(ch_idx), .argName = "row",
                      .argValue = std::uint64_t(bank.openRow));
            act += p_.tRp;
        }
        if (ch.everActivated)
            act = std::max(act, ch.lastActivate + p_.tRrd);
        if (bank.everActivated)
            act = std::max(act, bank.lastActivate + p_.tRas + p_.tRp);
        ++counters_.activates;
        OBS_EVENT(trace_, .name = "dram.act", .cat = "dram", .ph = 'X',
                  .ts = act, .dur = p_.tRcd,
                  .tid = std::uint32_t(ch_idx), .argName = "row",
                  .argValue = std::uint64_t(row));
        bank.lastActivate = act;
        bank.everActivated = true;
        ch.lastActivate = act;
        ch.everActivated = true;
        t = act + p_.tRcd;
        bank.openRow = p_.policy == PagePolicy::Open ? row : -1;
        // Closed-page: auto-precharge after the access; the bank is
        // next usable once tRAS + tRP elapse (tracked via
        // lastActivate above).
        bank.readyAt =
            p_.policy == PagePolicy::Open ? t : act + p_.tRas + p_.tRp;
    }

    // Column access and burst transfer on the shared channel bus.
    Cycle data_start = t + p_.tCas;
    data_start = std::max(data_start, ch.busFree);
    ch.busFree = data_start + p_.tBurst;
    const Cycle done = data_start + p_.tBurst;

    OBS_EVENT(trace_, .name = write ? "dram.col_wr" : "dram.col_rd",
              .cat = "dram", .ph = 'X', .ts = data_start,
              .dur = p_.tBurst, .tid = std::uint32_t(ch_idx),
              .argName = "row_hit",
              .argValue = row_hit ? std::uint64_t(1) : 0);
    write ? ++counters_.writes : ++counters_.reads;
    counters_.busBytes += p_.lineBytes;
    ch.lastUse = done;
    if (lat_) {
        const Cycle total = done - now;
        // Unloaded command latency of this access's path; everything
        // above it is waiting (bank busy, tRRD/tRC, bus contention,
        // refresh occupancy).
        Cycle unloaded = p_.tController + wake + p_.tCas + p_.tBurst;
        if (!row_hit) {
            unloaded += p_.tRcd;
            if (precharged)
                unloaded += p_.tRp;
        }
        (row_hit ? lat_->dramRowHit : lat_->dramRowMiss)
            .observe(double(total));
        lat_->dramQueue.observe(double(total - unloaded));
    }
    return done - now;
}

void
MemorySystem::finish(Cycle end)
{
    if (!p_.powerDown)
        return;
    for (Channel &ch : channels_) {
        if (end > ch.lastUse + p_.powerDownAfter) {
            counters_.powerDownCycles +=
                end - (ch.lastUse + p_.powerDownAfter);
            ch.lastUse = end;
        }
    }
}

double
MemorySystem::poweredDownFraction(Cycle total) const
{
    if (!p_.powerDown || total == 0)
        return 0.0;
    return double(counters_.powerDownCycles) /
           (double(total) * p_.nChannels);
}

} // namespace archsim
