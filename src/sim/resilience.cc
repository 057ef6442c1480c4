/**
 * @file
 * Fault plans and the per-run checkpoint store.
 */

#include "sim/resilience.hh"

#include <algorithm>
#include <sstream>

#include <sys/stat.h>

#include "sim/runner.hh"
#include "util/atomic_file.hh"
#include "util/hash.hh"
#include "util/parse.hh"
#include "util/record.hh"

namespace archsim {

namespace {

/** v2 added the sparse-directory counters to the stats line. */
constexpr const char *kCheckpointHeader = "cactid-ckpt-v2";

/** Record key: hashes the sweep fingerprint with the run's identity. */
std::string
recordKey(const std::string &fp, const std::string &config,
          const std::string &workload)
{
    return cactid::util::hex16(
        cactid::util::fnv1a64(fp + "|" + config + "|" + workload));
}

// Each persisted struct's fields, listed once: the same template
// writes them through a RecordWriter and reads them back through a
// RecordReader (util/record.hh).

template <class Io, class S>
void
simStatsFields(Io &io, S &s)
{
    io(s.cycles)(s.instructions)(s.ipc)(s.avgReadLatency);
    io(s.fInstruction)(s.fL2)(s.fL3)(s.fMemory)(s.fBarrier)(s.fLock);
    io(s.hier.l1Reads)(s.hier.l1Writes)(s.hier.l2Reads)(s.hier.l2Writes)
      (s.hier.l2Misses)(s.hier.xbarTransfers)(s.hier.c2cTransfers);
    io(s.dram.activates)(s.dram.reads)(s.dram.writes)(s.dram.rowHits)
      (s.dram.busBytes)(s.dram.powerDownEntries)(s.dram.powerDownCycles)
      (s.dram.refreshes);
    io(s.dirLive)(s.dirCapacity)(s.dirPeakLive)(s.dirEvictions)
      (s.dirEvictionInvals)(s.dirOverflows)(s.dirDemotions)
      (s.dirImplicitSparse);
    io(s.memPoweredDownFraction)(s.llcReads)(s.llcWrites)(s.llcHits)
      (s.llcMisses)(s.llcPageHits)(s.llcPageMisses);
}

template <class Io, class P>
void
powerFields(Io &io, P &b)
{
    io(b.l1Leak)(b.l1Dyn)(b.l2Leak)(b.l2Dyn)(b.xbarLeak)(b.xbarDyn)
      (b.l3Leak)(b.l3Dyn)(b.l3Refresh)(b.mainDyn)(b.mainStandby)
      (b.mainRefresh)(b.bus)(b.corePower)(b.execSeconds);
}

template <class Io, class T>
void
thermalFields(Io &io, T &t)
{
    io(t.maxTemp)(t.maxTempTopDie)(t.maxTempBottomDie);
}

template <class Io, class E>
void
epochFields(Io &io, E &e)
{
    io(e.index)(e.beginCycle)(e.endCycle)(e.instructions)(e.l1Reads)
      (e.l1Writes)(e.l2Reads)(e.l2Writes)(e.l2Misses)(e.xbarTransfers)
      (e.llcReads)(e.llcWrites)(e.llcHits)(e.llcMisses)
      (e.dramActivates)(e.dramReads)(e.dramWrites)(e.dramRowHits)
      (e.dramBusBytes)(e.poweredDownFraction)(e.ipc)(e.l2Mpki)
      (e.l3Mpki)(e.dramBandwidthGBs)(e.memHierPowerW)(e.stackTempK);
}

template <class Io, class E>
void
errorFields(Io &io, E &e)
{
    io.text("error.phase", e.phase);
    io.line("error.cycle")(e.cycle);
    io.text("error.message", e.message);
}

/** A RunResult's fields after its identity lines. */
template <class Io, class R>
void
runFields(Io &io, R &r)
{
    io.line("attempts")(r.attempts);
    errorFields(io, r.error);
    simStatsFields(io.line("stats"), r.stats);
    powerFields(io.line("power"), r.power);
    thermalFields(io.line("thermal"), r.thermal);
    io.list("epochs", "e", r.epochs,
            [](auto &e_io, auto &e) { epochFields(e_io, e); });
}

const char *
siteWord(FaultSite site, FaultAction action)
{
    if (site == FaultSite::Solve)
        return "solve";
    if (site == FaultSite::Export)
        return "export";
    return action == FaultAction::Timeout ? "timeout" : "step";
}

} // namespace

const char *
runStatusName(RunStatus s)
{
    switch (s) {
    case RunStatus::Ok:
        return "ok";
    case RunStatus::Failed:
        return "failed";
    case RunStatus::TimedOut:
        return "timed_out";
    case RunStatus::Skipped:
        return "skipped";
    }
    return "failed";
}

bool
parseRunStatus(std::string_view name, RunStatus &out)
{
    for (const RunStatus s :
         {RunStatus::Ok, RunStatus::Failed, RunStatus::TimedOut,
          RunStatus::Skipped}) {
        if (name == runStatusName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

const FaultSpec *
FaultPlan::find(std::size_t run, FaultSite site) const
{
    for (const FaultSpec &f : faults) {
        if (f.run == run && f.site == site)
            return &f;
    }
    return nullptr;
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ',')) {
        const auto bad = [&]() -> std::invalid_argument {
            return std::invalid_argument("bad fault spec: " + item);
        };
        if (item.empty())
            throw bad();
        const std::size_t at = item.find('@');
        if (at == std::string::npos || at == 0)
            throw bad();
        FaultSpec f;
        if (!cactid::util::parseNumber(item.substr(0, at), f.run))
            throw bad();

        std::string rest = item.substr(at + 1);
        // Optional transient suffix `xN` (attempts that fail).
        const std::size_t x = rest.rfind('x');
        int attempts = 0;
        if (x != std::string::npos && x > 0 &&
            cactid::util::parseNumber(rest.substr(x + 1), attempts)) {
            if (attempts <= 0)
                throw bad();
            f.failAttempts = attempts;
            rest = rest.substr(0, x);
        }
        // Optional `:CYCLE`.
        const std::size_t colon = rest.find(':');
        std::string site = rest.substr(0, colon);
        if (colon != std::string::npos &&
            !cactid::util::parseNumber(rest.substr(colon + 1), f.cycle))
            throw bad();
        if (site == "solve") {
            f.site = FaultSite::Solve;
        } else if (site == "step") {
            f.site = FaultSite::Step;
        } else if (site == "timeout") {
            f.site = FaultSite::Step;
            f.action = FaultAction::Timeout;
        } else if (site == "export") {
            f.site = FaultSite::Export;
        } else {
            throw bad();
        }
        plan.faults.push_back(f);
    }
    return plan;
}

FaultPlan
FaultPlan::seeded(std::uint64_t seed, std::size_t n_runs,
                  std::size_t n_faults)
{
    FaultPlan plan;
    if (n_runs == 0)
        return plan;
    n_faults = std::min(n_faults, n_runs);
    Rng rng(seed ^ 0x5eedf417ULL);
    std::vector<bool> used(n_runs, false);
    while (plan.faults.size() < n_faults) {
        const std::size_t run =
            static_cast<std::size_t>(rng.below(n_runs));
        if (used[run])
            continue;
        used[run] = true;
        FaultSpec f;
        f.run = run;
        f.site = FaultSite::Step;
        f.action = FaultAction::Throw;
        f.cycle = 1000 + rng.below(9000);
        plan.faults.push_back(f);
    }
    std::sort(plan.faults.begin(), plan.faults.end(),
              [](const FaultSpec &a, const FaultSpec &b) {
                  return a.run < b.run;
              });
    return plan;
}

std::string
FaultPlan::canonical() const
{
    std::vector<FaultSpec> sorted = faults;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const FaultSpec &a, const FaultSpec &b) {
                         if (a.run != b.run)
                             return a.run < b.run;
                         return static_cast<int>(a.site) <
                                static_cast<int>(b.site);
                     });
    std::string out;
    for (const FaultSpec &f : sorted) {
        if (!out.empty())
            out += ',';
        out += std::to_string(f.run);
        out += '@';
        out += siteWord(f.site, f.action);
        if (f.site == FaultSite::Step && f.cycle != 0)
            out += ':' + std::to_string(f.cycle);
        if (f.failAttempts != std::numeric_limits<int>::max())
            out += 'x' + std::to_string(f.failAttempts);
    }
    return out;
}

std::string
sweepFingerprint(std::uint64_t instr_per_thread, Cycle epoch_cycles,
                 bool exact_events, bool thermal, Cycle max_cycles)
{
    std::string s = "cactid-sweep-v1";
    s += "|instr=" + std::to_string(instr_per_thread);
    s += "|epoch=" + std::to_string(epoch_cycles);
    s += "|exact=" + std::to_string(exact_events ? 1 : 0);
    s += "|thermal=" + std::to_string(thermal ? 1 : 0);
    s += "|maxcycles=" + std::to_string(max_cycles);
    return s;
}

CheckpointStore::CheckpointStore(std::string dir,
                                 std::string fingerprint)
    : dir_(std::move(dir)), fp_(std::move(fingerprint))
{}

bool
CheckpointStore::ensureDir(std::string *err) const
{
    if (::mkdir(dir_.c_str(), 0755) == 0 || errno == EEXIST)
        return true;
    if (err)
        *err = "cannot create checkpoint directory " + dir_;
    return false;
}

std::string
CheckpointStore::path(const std::string &config,
                      const std::string &workload) const
{
    return dir_ + "/run-" + recordKey(fp_, config, workload) + ".ckpt";
}

std::string
CheckpointStore::encode(const RunResult &r) const
{
    cactid::util::RecordWriter w(kCheckpointHeader);
    w.text("key", recordKey(fp_, r.config, r.workload));
    w.text("config", r.config);
    w.text("workload", r.workload);
    w.text("status", runStatusName(r.status));
    runFields(w, r);
    return w.finish();
}

bool
CheckpointStore::save(const RunResult &r, std::string *err) const
{
    return cactid::util::writeFileAtomic(path(r.config, r.workload),
                                         encode(r), err);
}

CheckpointStore::Load
CheckpointStore::decode(const std::string &bytes,
                        RunResult &out) const
{
    cactid::util::RecordReader rd(bytes, kCheckpointHeader);
    RunResult r;
    std::string key, status;
    rd.text("key", key);
    rd.text("config", r.config);
    rd.text("workload", r.workload);
    rd.text("status", status);
    runFields(rd, r);
    // Besides the framing, reject records keyed under different sweep
    // options: the key covers the fingerprint, so a stale directory
    // cannot leak runs simulated with, say, another instruction budget.
    if (!rd.finish() || key != recordKey(fp_, r.config, r.workload) ||
        !parseRunStatus(status, r.status) || r.attempts < 1)
        return Load::Invalid;
    r.stats.config = r.config;
    r.stats.workload = r.workload;
    out = std::move(r);
    return Load::Loaded;
}

CheckpointStore::Load
CheckpointStore::load(const std::string &config,
                      const std::string &workload,
                      RunResult &out) const
{
    std::string bytes;
    if (!cactid::util::readFile(path(config, workload), bytes))
        return Load::Missing;
    const Load res = decode(bytes, out);
    if (res == Load::Loaded &&
        (out.config != config || out.workload != workload))
        return Load::Invalid;
    return res;
}

} // namespace archsim
