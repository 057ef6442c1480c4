/**
 * @file
 * Simulator registry adapters.
 */

#include "sim/obs.hh"

namespace archsim {

void
registerSimStats(cactid::obs::Registry &r, const SimStats &s)
{
    r.counter("sim.cycles") = s.cycles;
    r.counter("sim.instructions") = s.instructions;
    r.gauge("sim.ipc") = s.ipc;
    r.gauge("sim.avg_read_latency_cycles") = s.avgReadLatency;

    const HierCounters &h = s.hier;
    r.counter("sim.l1.reads") = h.l1Reads;
    r.counter("sim.l1.writes") = h.l1Writes;
    r.counter("sim.l2.reads") = h.l2Reads;
    r.counter("sim.l2.writes") = h.l2Writes;
    r.counter("sim.l2.demand_misses") = h.l2Misses;
    r.counter("sim.xbar.transfers") = h.xbarTransfers;
    r.counter("sim.xbar.c2c_transfers") = h.c2cTransfers;

    r.counter("sim.dir.live_entries") = s.dirLive;
    r.counter("sim.dir.capacity") = s.dirCapacity;
    r.counter("sim.dir.peak_live") = s.dirPeakLive;
    r.counter("sim.dir.evictions") = s.dirEvictions;
    r.counter("sim.dir.eviction_invals") = s.dirEvictionInvals;
    r.counter("sim.dir.overflows") = s.dirOverflows;
    r.counter("sim.dir.demotions") = s.dirDemotions;
    r.counter("sim.dir.implicit_sparse") = s.dirImplicitSparse;

    r.counter("sim.llc.reads") = s.llcReads;
    r.counter("sim.llc.writes") = s.llcWrites;
    r.counter("sim.llc.hits") = s.llcHits;
    r.counter("sim.llc.misses") = s.llcMisses;
    r.counter("sim.llc.page_hits") = s.llcPageHits;
    r.counter("sim.llc.page_misses") = s.llcPageMisses;

    const DramCounters &d = s.dram;
    r.counter("sim.dram.activates") = d.activates;
    r.counter("sim.dram.reads") = d.reads;
    r.counter("sim.dram.writes") = d.writes;
    r.counter("sim.dram.row_hits") = d.rowHits;
    r.counter("sim.dram.bus_bytes") = d.busBytes;
    r.counter("sim.dram.refreshes") = d.refreshes;
    r.counter("sim.dram.power_down_entries") = d.powerDownEntries;
    r.counter("sim.dram.power_down_cycles") = d.powerDownCycles;
    r.gauge("sim.dram.powered_down_fraction") = s.memPoweredDownFraction;
}

void
registerLatencyStats(cactid::obs::Registry &r, const LatencyStats &lat)
{
    const auto put = [&r](const char *name,
                          const cactid::obs::Histogram &h) {
        r.histogram(name, latencyBounds()).merge(h);
    };
    put("sim.lat.l1", lat.l1);
    put("sim.lat.l2", lat.l2);
    put("sim.lat.remote_l2", lat.remoteL2);
    put("sim.lat.l3", lat.l3);
    put("sim.lat.mem", lat.mem);
    put("sim.lat.dram.row_hit", lat.dramRowHit);
    put("sim.lat.dram.row_miss", lat.dramRowMiss);
    put("sim.lat.dram.queue", lat.dramQueue);
    put("sim.lat.llc.queue", lat.llcQueue);
}

void
registerPowerBreakdown(cactid::obs::Registry &r, const PowerBreakdown &b)
{
    r.gauge("power.l1_w") = b.l1Leak + b.l1Dyn;
    r.gauge("power.l2_w") = b.l2Leak + b.l2Dyn;
    r.gauge("power.xbar_w") = b.xbarLeak + b.xbarDyn;
    r.gauge("power.l3_leak_w") = b.l3Leak;
    r.gauge("power.l3_dyn_w") = b.l3Dyn;
    r.gauge("power.l3_refresh_w") = b.l3Refresh;
    r.gauge("power.main_dyn_w") = b.mainDyn;
    r.gauge("power.main_standby_w") = b.mainStandby;
    r.gauge("power.main_refresh_w") = b.mainRefresh;
    r.gauge("power.bus_w") = b.bus;
    r.gauge("power.memory_hierarchy_w") = b.memoryHierarchy();
    r.gauge("power.system_w") = b.system();
    r.gauge("power.edp_js") = b.edp();
}

void
registerRunStatus(cactid::obs::Registry &r, RunStatus status,
                  int attempts)
{
    r.counter("run.status_code") =
        static_cast<std::uint64_t>(status);
    r.counter("run.attempts") = static_cast<std::uint64_t>(attempts);
    r.counter("run.failed") = status == RunStatus::Ok ? 0 : 1;
}

} // namespace archsim
