/**
 * @file
 * The solver workloads: design_space (cold solves of distinct configs,
 * one client, no cache) and serve_mixed (a JSONL stream through
 * tools::serveRequests and a fresh in-memory solve cache).
 *
 * Traced, each solve or request chunk runs once through the public
 * entry point (SolverEngine::run, tools::serveRequests: the parent
 * span) and once as a replica that calls the layers one by one under
 * their own spans; the replica must reproduce the entry point's
 * output byte for byte.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "array/partition.hh"
#include "bench.hh"
#include "core/engine.hh"
#include "core/fingerprint.hh"
#include "core/optimizer.hh"
#include "core/solve_cache.hh"
#include "core/solver.hh"
#include "obs/numfmt.hh"
#include "tools/serve.hh"

namespace perfbench {

namespace {

using cactid::AccessMode;
using cactid::MemoryConfig;
using cactid::MemoryType;
using cactid::RamCellTech;
using cactid::Solution;
using cactid::SolveResult;
using cactid::obs::fmtDouble;

// --- The seeded design space.

/** A (cell technology, memory type) pair. */
struct Kind {
    RamCellTech tech;
    MemoryType type;
};

constexpr Kind kKinds[] = {
    {RamCellTech::Sram, MemoryType::Cache},
    {RamCellTech::Sram, MemoryType::PlainRam},
    {RamCellTech::LpDram, MemoryType::Cache},
    {RamCellTech::LpDram, MemoryType::PlainRam},
    {RamCellTech::LpDram, MemoryType::MainMemoryChip},
    {RamCellTech::CommDram, MemoryType::Cache},
    {RamCellTech::CommDram, MemoryType::PlainRam},
    {RamCellTech::CommDram, MemoryType::MainMemoryChip},
};
constexpr double kNodesNm[] = {32, 45, 65, 90};

/** Smallest capacity (log2 bytes) of a kind: 64 KB, chips 1 MB. */
int
minCapLog2(const Kind &k)
{
    return k.type == MemoryType::MainMemoryChip ? 20 : 16;
}
constexpr int kMaxCapLog2 = 27; // 128 MB
constexpr double kMinSetsPerBank = 32;

template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/**
 * Values dealt in seed-shuffled rounds: every value comes up equally
 * often, so seeds differ in how knobs combine, not in how often each
 * value appears (which keeps the work of a pass steady across seeds).
 */
template <typename T>
class Deck
{
  public:
    explicit Deck(std::vector<T> values) : values_(std::move(values)) {}

    T
    deal(Rng &rng)
    {
        if (next_ == order_.size()) {
            order_ = values_;
            shuffle(order_, rng);
            next_ = 0;
        }
        return order_[next_++];
    }

  private:
    std::vector<T> values_;
    std::vector<T> order_;
    std::size_t next_ = 0;
};

/** The seeded source of design points. */
class DesignPoints
{
  public:
    explicit DesignPoints(std::uint64_t seed) : rng_(seed) {}

    Rng &rng() { return rng_; }

    /** One design point of a (kind, node, capacity) stratum. */
    MemoryConfig
    make(const Kind &k, double nm, int cap_log2)
    {
        MemoryConfig c;
        c.capacityBytes = std::ldexp(1.0, cap_log2);
        c.type = k.type;
        c.dataCellTech = k.tech;
        c.tagCellTech = sramTags_.deal(rng_) ? RamCellTech::Sram : k.tech;
        c.featureNm = nm;
        c.temperatureK = temperature_.deal(rng_);
        c.includeEcc = ecc_.deal(rng_) != 0;
        c.maxAreaConstraint = maxArea_.deal(rng_);
        c.maxAccTimeConstraint = maxAccTime_.deal(rng_);
        c.weights = weights_.deal(rng_);
        if (k.type == MemoryType::MainMemoryChip) {
            c.blockBytes = 8;
            c.nBanks = chipBanks_.deal(rng_);
            c.pageBytes = pageBytes_.deal(rng_);
            c.ioBits = ioBits_.deal(rng_);
            return c;
        }
        c.blockBytes = block_.deal(rng_);
        c.nBanks = banks_.deal(rng_);
        c.sleepTransistors =
            k.tech == RamCellTech::Sram && sleep_.deal(rng_) != 0;
        if (k.type == MemoryType::Cache) {
            c.associativity = ways_.deal(rng_);
            c.accessMode = mode_.deal(rng_);
            // Too few sets per bank leave no feasible tag array: trade
            // banks, then ways, for sets.
            auto sets = [&c] {
                return c.capacityBytes /
                       (double(c.nBanks) * c.blockBytes * c.associativity);
            };
            while (sets() < kMinSetsPerBank && c.nBanks > 1)
                c.nBanks /= 2;
            while (sets() < kMinSetsPerBank && c.associativity > 1)
                c.associativity /= 2;
        }
        return c;
    }

  private:
    Rng rng_;
    Deck<int> sramTags_{{0, 1}};
    Deck<double> temperature_{{330.0, 350.0, 360.0, 380.0}};
    Deck<int> ecc_{{1, 0, 0, 0}};
    Deck<double> maxArea_{{0.2, 0.4, 0.6}};
    Deck<double> maxAccTime_{{0.1, 0.2, 0.5, 1.0}};
    Deck<cactid::OptimizationWeights> weights_{{
        {1.0, 1.0, 1.0, 1.0, 0.0, 0.0},
        {2.0, 2.0, 2.0, 2.0, 1.0, 0.0},
        {1.0, 2.0, 0.5, 0.5, 0.0, 2.0},
        {0.0, 1.0, 0.0, 0.0, 1.0, 0.0},
    }};
    Deck<int> chipBanks_{{4, 8}};
    Deck<int> pageBytes_{{1024, 2048}};
    Deck<int> ioBits_{{4, 8, 16}};
    Deck<int> block_{{32, 64, 128}};
    Deck<int> banks_{{1, 2, 4, 8}};
    Deck<int> sleep_{{0, 1}};
    Deck<int> ways_{{1, 2, 4, 8, 16}};
    Deck<AccessMode> mode_{
        {AccessMode::Normal, AccessMode::Sequential, AccessMode::Fast}};
};

/**
 * Distinct design points, @p per_stratum from every (kind, node,
 * capacity) stratum so each seed covers the space evenly, shuffled so
 * consecutive solves come from different strata.
 */
std::vector<MemoryConfig>
designSpaceConfigs(std::uint64_t seed, std::size_t per_stratum)
{
    DesignPoints points(seed);
    std::vector<MemoryConfig> out;
    std::unordered_set<std::string> keys;
    for (const Kind &k : kKinds) {
        for (const double nm : kNodesNm) {
            for (int cap = minCapLog2(k); cap <= kMaxCapLog2; ++cap) {
                for (std::size_t i = 0; i < per_stratum; ++i) {
                    for (int tries = 0; tries < 16; ++tries) {
                        MemoryConfig c = points.make(k, nm, cap);
                        c.validate();
                        if (keys.insert(cactid::canonicalKey(c)).second) {
                            out.push_back(c);
                            break;
                        }
                    }
                }
            }
        }
    }
    shuffle(out, points.rng());
    return out;
}

// --- Exact renderings (the digests and the replica comparisons).

void
renderBank(std::string &out, const cactid::BankMetrics &b)
{
    out += std::to_string(b.part.rowsPerSubarray) + ' ' +
           std::to_string(b.part.colsPerSubarray) + ' ' +
           std::to_string(b.part.blMux) + ' ' +
           std::to_string(b.part.samMux) + ' ' + std::to_string(b.nMats) +
           ' ' + std::to_string(b.gridX) + ' ' + std::to_string(b.gridY) +
           ' ' + std::to_string(b.nActiveMats);
    for (const double v :
         {b.width, b.height, b.area, b.areaEfficiency, b.accessTime,
          b.randomCycle, b.interleaveCycle, b.tRcd, b.tCas, b.tRp, b.tRas,
          b.tRc, b.tRrd, b.readEnergy, b.writeEnergy, b.activateEnergy,
          b.readBurstEnergy, b.writeBurstEnergy, b.leakage, b.refreshPower})
        out += ' ' + fmtDouble(v);
}

void
renderSolution(std::string &out, const Solution &s)
{
    out += s.hasTag ? "tag" : "notag";
    for (const double v :
         {s.totalArea, s.bankArea, s.areaEfficiency, s.accessTime,
          s.randomCycle, s.interleaveCycle, s.readEnergy, s.writeEnergy,
          s.leakage, s.refreshPower, s.tRcd, s.tCas, s.tRp, s.tRas, s.tRc,
          s.tRrd, s.activateEnergy, s.readBurstEnergy, s.writeBurstEnergy,
          s.objective})
        out += ' ' + fmtDouble(v);
    out += ' ' + std::to_string(s.nSubbanks) + " | ";
    renderBank(out, s.data);
    out += " | ";
    renderBank(out, s.tag);
    out += '\n';
}

/** The best solution and every constraint survivor, exactly. */
std::string
renderSolutions(const Solution &best, const std::vector<Solution> &filtered)
{
    std::string out = "best ";
    renderSolution(out, best);
    out += "filtered " + std::to_string(filtered.size()) + '\n';
    for (const Solution &s : filtered)
        renderSolution(out, s);
    return out;
}

/** The EngineStats identities every solve must satisfy. */
void
checkSolve(const MemoryConfig &cfg, const SolveResult &r, Report &rep)
{
    const cactid::EngineStats &st = r.stats;
    rep.check(st.partitionsEnumerated ==
                      st.partitionsInfeasible + st.solutionsBuilt &&
                  st.solutionsBuilt ==
                      st.areaPruned + st.timePruned + r.filtered.size() &&
                  !r.filtered.empty(),
              "EngineStats identities broken for " + cfg.summary());
}

// --- design_space

/** Distinct configs per (kind, node, capacity) stratum: 1056 total. */
constexpr std::size_t kPerStratum = 3;

/** What the replica of one SolverEngine::run call produced. */
struct ReplicaSolve {
    Solution best;
    std::vector<Solution> filtered;
    std::uint64_t enumerated = 0, infeasible = 0, built = 0;
    std::uint64_t areaPruned = 0, timePruned = 0;
};

/**
 * SolverEngine::run(cfg) at jobs=1 without a cache, rebuilt from the
 * public layer calls.  Filtering the fully built set by area keeps the
 * same survivors, in the same order, as the engine's streaming prune.
 */
ReplicaSolve
replicaSolve(const MemoryConfig &cfg, SpanLog &log, std::uint64_t group)
{
    const SpanLog::Scope root(log, "replica.solve", group);
    ReplicaSolve r;
    std::optional<cactid::Technology> tech;
    {
        const SpanLog::Scope s(log, "tech.init", group, root.id());
        tech.emplace(cfg.featureNm, cfg.temperatureK);
    }
    std::optional<cactid::CandidateEvaluator> eval;
    {
        const SpanLog::Scope s(log, "core.tagpath", group, root.id());
        eval.emplace(*tech, cfg);
    }
    std::vector<cactid::Partition> candidates;
    {
        const SpanLog::Scope s(log, "array.enumerate", group, root.id());
        cactid::forEachPartition(
            eval->spec().sizeBits, eval->spec().outputBits,
            eval->spec().tech, cactid::PartitionLimits{},
            [&](const cactid::Partition &p) { candidates.push_back(p); });
    }
    std::vector<Solution> built;
    {
        const SpanLog::Scope s(log, "core.evaluate", group, root.id());
        for (const cactid::Partition &p : candidates) {
            if (std::optional<Solution> sol = (*eval)(p))
                built.push_back(std::move(*sol));
            else
                ++r.infeasible;
        }
    }
    r.enumerated = candidates.size();
    r.built = built.size();
    if (built.empty())
        throw std::runtime_error("no feasible solutions for " +
                                 cfg.summary());
    {
        const SpanLog::Scope s(log, "core.optimizer.area", group, root.id());
        r.areaPruned = cactid::filterByArea(built, cfg.maxAreaConstraint);
    }
    {
        const SpanLog::Scope s(log, "core.optimizer.time", group, root.id());
        r.timePruned =
            cactid::filterByAccessTime(built, cfg.maxAccTimeConstraint);
    }
    {
        const SpanLog::Scope s(log, "core.optimizer.select", group,
                               root.id());
        r.best = cactid::selectBest(built, cfg.weights);
    }
    r.filtered = std::move(built);
    return r;
}

cactid::SolverOptions
designSolverOptions()
{
    // One client solving one config at a time, no cache: every solve
    // is cold.  Streaming (no SolveResult::all), as a solve-only
    // consumer runs it.
    cactid::SolverOptions so;
    so.jobs = 1;
    so.collectAll = false;
    so.cache = nullptr;
    return so;
}

/** One timed solve; false (and a failure) when it threw. */
bool
timedSolve(const cactid::SolverEngine &engine, const MemoryConfig &cfg,
           SolveResult &out, double &wall, double &cpu, Report &rep)
{
    const double cpu0 = threadCpuSeconds();
    const auto t0 = Clock::now();
    bool ok = true;
    try {
        out = engine.run(cfg);
    } catch (const std::exception &e) {
        ok = false;
        wall = secondsSince(t0);
        cpu = threadCpuSeconds() - cpu0;
        rep.fail(cfg.summary() + ": " + e.what());
        return ok;
    }
    wall = secondsSince(t0);
    cpu = threadCpuSeconds() - cpu0;
    return ok;
}

/**
 * What a design-space client sets up before its first solve: the
 * engine.  The configs are the benchmark's input and are generated
 * outside the timed region.
 */
double
designSetUpSeconds()
{
    return timeSetUp([] {
        const cactid::SolverEngine engine(designSolverOptions());
        escape(&engine);
    });
}

void
designEndToEnd(const Args &a, Report &rep)
{
    const double setup_s = designSetUpSeconds();
    const std::vector<MemoryConfig> cfgs =
        designSpaceConfigs(a.seed, kPerStratum);
    rep.check(cactid::globalSolveCache() == nullptr,
              "a global solve cache is installed");
    const cactid::SolverEngine engine(designSolverOptions());

    std::vector<double> walls, cpus;
    std::vector<std::vector<double>> latencies; // [pass][config]
    std::string first_digest;
    const auto t_measure = Clock::now();
    do {
        checkTracerOff(rep);
        Digest d;
        double pass_wall = 0.0, pass_cpu = 0.0;
        latencies.emplace_back();
        for (const MemoryConfig &cfg : cfgs) {
            rep.attempt();
            SolveResult r;
            double wall = 0.0, cpu = 0.0;
            const bool ok = timedSolve(engine, cfg, r, wall, cpu, rep);
            pass_wall += wall;
            pass_cpu += cpu;
            latencies.back().push_back(wall);
            if (ok) {
                checkSolve(cfg, r, rep);
                d.add(renderSolutions(r.best, r.filtered));
            }
        }
        walls.push_back(pass_wall);
        cpus.push_back(pass_cpu);
        if (first_digest.empty()) {
            first_digest = d.hex();
            Report::note("digest solutions " + first_digest + " over " +
                         std::to_string(cfgs.size()) + " distinct configs");
        }
        rep.check(d.hex() == first_digest,
                  "solve pass " + std::to_string(walls.size()) +
                      " differs from the first (digest " + d.hex() + ")");
    } while (secondsSince(t_measure) < a.seconds);

    const double solves_per_s = double(cfgs.size()) / median(walls);
    Report::note("solves_per_s " + fmtDouble(solves_per_s) + " (" +
                 std::to_string(cfgs.size()) + " cold solves per pass, "
                 "median of " + std::to_string(walls.size()) + " passes)");
    const double p50_ms = opQuantile(latencies, 0.50) * 1e3;
    const double p99_ms = opQuantile(latencies, 0.99) * 1e3;
    Report::note("solve_p50_ms " + fmtDouble(p50_ms) + ", solve_p99_ms " +
                 fmtDouble(p99_ms) + " over " + std::to_string(cfgs.size()) +
                 " configs (each the median of its " +
                 std::to_string(latencies.size()) + " solves)");
    rep.set("setup_s", setup_s);
    rep.set("wall_s", median(walls));
    rep.set("cpu_s", median(cpus));
    rep.set("peak_rss_mb", peakRssMb());
    rep.set("work_rate", solves_per_s);
    rep.set("op_p50_ms", p50_ms);
    rep.set("op_p99_ms", p99_ms);
}

void
designTraced(const Args &a, Report &rep, SpanLog &log)
{
    const std::vector<MemoryConfig> cfgs =
        designSpaceConfigs(a.seed, kPerStratum);
    const cactid::SolverEngine engine(designSolverOptions());

    // Untraced reference pass.
    Digest d;
    double wall_plain = 0.0;
    for (const MemoryConfig &cfg : cfgs) {
        rep.attempt();
        SolveResult r;
        double wall = 0.0, cpu = 0.0;
        if (timedSolve(engine, cfg, r, wall, cpu, rep))
            d.add(renderSolutions(r.best, r.filtered));
        wall_plain += wall;
    }
    Report::note("digest solutions " + d.hex() + " over " +
                 std::to_string(cfgs.size()) + " distinct configs");

    double enumerated = 0, built = 0, kept = 0;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const MemoryConfig &cfg = cfgs[i];
        const std::uint64_t group = i + 1;
        rep.attempt(2);
        SolveResult real;
        try {
            const SpanLog::Scope s(log, "core.engine.run", group);
            real = engine.run(cfg);
        } catch (const std::exception &e) {
            rep.fail(cfg.summary() + ": " + e.what());
            continue;
        }
        checkSolve(cfg, real, rep);
        ReplicaSolve rs;
        try {
            rs = replicaSolve(cfg, log, group);
        } catch (const std::exception &e) {
            rep.fail("replica of " + cfg.summary() + ": " + e.what());
            continue;
        }
        const cactid::EngineStats &st = real.stats;
        rep.check(renderSolutions(rs.best, rs.filtered) ==
                          renderSolutions(real.best, real.filtered) &&
                      rs.enumerated == st.partitionsEnumerated &&
                      rs.infeasible == st.partitionsInfeasible &&
                      rs.built == st.solutionsBuilt &&
                      rs.areaPruned == st.areaPruned &&
                      rs.timePruned == st.timePruned,
                  "the layer replica differs from SolverEngine::run for " +
                      cfg.summary());
        enumerated += double(rs.enumerated);
        built += double(rs.built);
        kept += double(rs.filtered.size());
    }

    const double evaluate_s = log.total("core.evaluate");
    const double parent = log.total("core.engine.run");
    const double children = log.childTotal("replica.solve");
    const double coverage = parent > 0 ? children / parent : 0.0;
    rep.set("tech.init_s", log.total("tech.init"));
    rep.set("core.tagpath_s", log.total("core.tagpath"));
    rep.set("array.enumerate_s", log.total("array.enumerate"));
    rep.set("array.partitions", enumerated);
    rep.set("core.evaluate_s", evaluate_s);
    rep.set("core.evaluate.us_per_candidate",
            enumerated > 0 ? evaluate_s * 1e6 / enumerated : 0.0);
    rep.set("core.feasible_ratio", enumerated > 0 ? built / enumerated : 0.0);
    rep.set("core.optimizer_s", log.total("core.optimizer.area") +
                                    log.total("core.optimizer.time") +
                                    log.total("core.optimizer.select"));
    rep.set("core.kept_ratio", built > 0 ? kept / built : 0.0);
    rep.set("core.engine.coverage", coverage);
    Report::note("core: " + fmtDouble(enumerated) + " partitions, " +
                 fmtDouble(built) + " built, " + fmtDouble(kept) +
                 " kept over " + std::to_string(cfgs.size()) + " solves");
    Report::note("core.engine.coverage " + fmtDouble(coverage) +
                 " = replica layer spans " + fmtDouble(children) +
                 " s / SolverEngine::run " + fmtDouble(parent) + " s" +
                 (coverage < 0.95 ? "  [below the 0.95 target]" : ""));
    const double traced = log.total("replica.solve");
    rep.set("trace.overhead", traced / wall_plain);
    Report::note("trace.overhead " + fmtDouble(traced / wall_plain) +
                 " = traced replica pass " + fmtDouble(traced) +
                 " s / untraced pass " + fmtDouble(wall_plain) + " s");
}

// --- serve_mixed

constexpr std::size_t kServeChunks = 64;
constexpr std::size_t kServeChunk = 64; ///< lines per serveRequests call
// Every chunk carries the same mix, in a seeded order.  The miss share
// follows the paper sweep (study_sweep) served one run at a time: each
// of its 48 runs asks for its hierarchy (L1, L2, its L3 option unless
// nol3, main memory), 184 requests for 8 distinct configs, so 4.3% of
// requests miss a warm cache.  Here 3 lines in 64 (4.7%) miss: two new
// configs and one weight-only variant of a recent config.  The sweep
// has no weight-only variants; the one per chunk is there so that
// solveBatch's share groups run.  One line in 64 is planted malformed.
// The rest are exact repeats of configs already in the stream.
constexpr std::size_t kBadPerChunk = 1;     ///< planted malformed lines
constexpr std::size_t kNewPerChunk = 2;     ///< configs not seen before
constexpr std::size_t kVariantPerChunk = 1; ///< weight-only variants

/** One request line and what its answer must be. */
struct ServeLine {
    std::string text;
    std::string key; ///< canonical config key; empty on a planted bad line
    std::string fingerprint;
};

const char *
techName(RamCellTech t)
{
    switch (t) {
      case RamCellTech::Sram: return "sram";
      case RamCellTech::LpDram: return "lp-dram";
      case RamCellTech::CommDram: return "comm-dram";
    }
    return "?";
}

/** The request's "config" object: every field the generator sets. */
std::string
configJson(const MemoryConfig &c)
{
    const double kib = c.capacityBytes / 1024.0;
    std::string j = "{\"size\":\"" + fmtDouble(kib) + "K\"";
    j += std::string(",\"type\":\"") +
         (c.type == MemoryType::Cache      ? "cache"
          : c.type == MemoryType::PlainRam ? "ram"
                                           : "main_memory") +
         "\"";
    j += std::string(",\"technology\":\"") + techName(c.dataCellTech) + "\"";
    j += std::string(",\"tag_technology\":\"") + techName(c.tagCellTech) +
         "\"";
    j += ",\"block\":" + std::to_string(c.blockBytes);
    j += ",\"associativity\":" + std::to_string(c.associativity);
    j += ",\"banks\":" + std::to_string(c.nBanks);
    j += std::string(",\"access_mode\":\"") +
         (c.accessMode == AccessMode::Normal       ? "normal"
          : c.accessMode == AccessMode::Sequential ? "sequential"
                                                   : "fast") +
         "\"";
    j += ",\"feature_nm\":" + fmtDouble(c.featureNm);
    j += ",\"temperature_k\":" + fmtDouble(c.temperatureK);
    j += std::string(",\"sleep_tx\":") +
         (c.sleepTransistors ? "true" : "false");
    j += std::string(",\"ecc\":") + (c.includeEcc ? "true" : "false");
    j += ",\"max_area\":" + fmtDouble(c.maxAreaConstraint);
    j += ",\"max_acctime\":" + fmtDouble(c.maxAccTimeConstraint);
    j += ",\"weight_dynamic\":" + fmtDouble(c.weights.dynamicEnergy);
    j += ",\"weight_leakage\":" + fmtDouble(c.weights.leakage);
    j += ",\"weight_cycle\":" + fmtDouble(c.weights.randomCycle);
    j += ",\"weight_interleave\":" + fmtDouble(c.weights.interleaveCycle);
    j += ",\"weight_acctime\":" + fmtDouble(c.weights.accessTime);
    j += ",\"weight_area\":" + fmtDouble(c.weights.area);
    j += ",\"io_bits\":" + std::to_string(c.ioBits);
    j += ",\"page_bytes\":" + std::to_string(c.pageBytes);
    return j + "}";
}

/** A line whose correct answer is status "error". */
std::string
badLine(Rng &rng, std::size_t i)
{
    const std::string id = "\"id\":\"r" + std::to_string(i) + "\"";
    switch (rng.below(6)) {
      case 0: return "{" + id + ",\"config\":{\"size\":\"4M\""; // truncated
      case 1: return "{" + id + "}";                            // no config
      case 2: return "{" + id + ",\"config\":{\"size\":\"4M\",\"type\":\"tape\"}}";
      case 3: return "{" + id + ",\"config\":{\"size\":\"4M\",\"colour\":1}}";
      case 4: return "[" + std::to_string(i) + "]"; // not an object
      default: return "{" + id + ",\"config\":{\"size\":\"lots\"}}";
    }
}

/**
 * The request stream: per chunk, new configs (64 KB-4 MB, chips
 * 1-4 MB, every kind and node), weight-only variants of a recent
 * config (share groups), planted malformed lines, and exact repeats
 * of earlier configs (cache reads across chunks, dedup within one).
 */
std::vector<ServeLine>
serveStream(std::uint64_t seed)
{
    DesignPoints points(seed ^ 0x5e57e5e57e5e57e5ULL);
    Rng &rng = points.rng();
    Deck<std::size_t> kinds{{0, 1, 2, 3, 4, 5, 6, 7}};
    Deck<double> nodes{{32.0, 45.0, 65.0, 90.0}};
    Deck<int> caps{{0, 1, 2, 3, 4, 5, 6}}; // above the kind's smallest
    enum Slot { Bad, New, Variant, Repeat };
    std::vector<ServeLine> lines;
    std::vector<MemoryConfig> pool;
    std::unordered_set<std::string> pooled;
    for (std::size_t chunk = 0; chunk < kServeChunks; ++chunk) {
        std::vector<Slot> slots(kServeChunk, Repeat);
        std::fill_n(slots.begin(), kBadPerChunk, Bad);
        std::fill_n(slots.begin() + kBadPerChunk, kNewPerChunk, New);
        std::fill_n(slots.begin() + kBadPerChunk + kNewPerChunk,
                    kVariantPerChunk, Variant);
        shuffle(slots, rng);
        for (const Slot slot : slots) {
            const std::size_t i = lines.size();
            if (slot == Bad) {
                lines.push_back({badLine(rng, i), "", ""});
                continue;
            }
            MemoryConfig c;
            if (slot == New || pool.empty()) {
                const Kind &k = kKinds[kinds.deal(rng)];
                const int cap = std::min(minCapLog2(k) + caps.deal(rng), 22);
                c = points.make(k, nodes.deal(rng), cap);
            } else if (slot == Variant) {
                c = pool[pool.size() - 1 -
                         rng.below(std::min<std::size_t>(pool.size(), 8))];
                c.weights.dynamicEnergy += 1.0 + double(rng.below(4));
            } else {
                c = pool[rng.below(pool.size())];
            }
            c.validate();
            std::string key = cactid::canonicalKey(c);
            if (pooled.insert(key).second)
                pool.push_back(c);
            lines.push_back({"{\"id\":\"r" + std::to_string(i) +
                                 "\",\"config\":" + configJson(c) + "}",
                             std::move(key),
                             cactid::configFingerprint(c).hex()});
        }
    }
    return lines;
}

/** The stream cut into serveRequests calls. */
std::vector<std::vector<std::string>>
chunks(const std::vector<ServeLine> &lines)
{
    std::vector<std::vector<std::string>> out;
    for (std::size_t i = 0; i < lines.size(); i += kServeChunk) {
        std::vector<std::string> c;
        for (std::size_t j = i; j < std::min(lines.size(), i + kServeChunk);
             ++j)
            c.push_back(lines[j].text);
        out.push_back(std::move(c));
    }
    return out;
}

/** Cache hits and misses a correct cache must report for the stream. */
void
expectedCacheCounts(const std::vector<ServeLine> &lines, std::uint64_t &hits,
                    std::uint64_t &misses)
{
    std::unordered_set<std::string> seen;
    hits = misses = 0;
    for (std::size_t i = 0; i < lines.size(); i += kServeChunk) {
        std::vector<std::string> uniq;
        std::unordered_set<std::string> in_chunk;
        for (std::size_t j = i; j < std::min(lines.size(), i + kServeChunk);
             ++j) {
            const std::string &k = lines[j].key;
            if (!k.empty() && in_chunk.insert(k).second)
                uniq.push_back(k);
        }
        for (const std::string &k : uniq)
            (seen.count(k) ? hits : misses) += 1;
        seen.insert(uniq.begin(), uniq.end());
    }
}

/**
 * Check one pass's responses: one per line, errors exactly on the
 * planted lines, the expected fingerprint on every answer, and equal
 * configs answered with equal bytes whether solved cold, deduplicated
 * or read from the cache.
 */
void
checkResponses(const std::vector<ServeLine> &lines,
               const std::vector<std::string> &responses, Report &rep)
{
    if (!rep.check(responses.size() == lines.size(),
                   "serve answered " + std::to_string(responses.size()) +
                       " of " + std::to_string(lines.size()) + " requests"))
        return;
    std::unordered_map<std::string, std::string> body_of;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string index =
            "{\"index\":" + std::to_string(i % kServeChunk) + ",";
        const std::string &resp = responses[i];
        const std::string &key = lines[i].key;
        if (!rep.check(resp.compare(0, index.size(), index) == 0,
                       "response " + std::to_string(i) +
                           " out of order: " + resp.substr(0, 40)))
            continue;
        if (key.empty()) {
            rep.check(resp.find("\"status\":\"error\"") != std::string::npos,
                      "malformed line " + std::to_string(i) +
                          " was not answered with an error");
            continue;
        }
        const std::string head = index + "\"id\":\"r" + std::to_string(i) +
                                 "\",\"status\":\"ok\",\"fingerprint\":\"" +
                                 lines[i].fingerprint + "\"";
        if (!rep.check(resp.compare(0, head.size(), head) == 0,
                       "request " + std::to_string(i) +
                           " answered wrongly: " + resp.substr(0, 120)))
            continue;
        const std::string body = resp.substr(head.size());
        const auto [it, fresh] = body_of.emplace(key, body);
        rep.check(fresh || it->second == body,
                  "request " + std::to_string(i) +
                      " differs from an earlier answer to the same config");
    }
}

cactid::tools::ServeOptions
serveOptions(const Args &a, cactid::SolveCache &cache)
{
    cactid::tools::ServeOptions o;
    o.solver.jobs = a.cpus;
    o.solver.collectAll = false; // responses never need `all`
    o.solver.cache = &cache;
    return o;
}

/** One pass over the stream with a fresh cache. */
struct ServePass {
    std::vector<std::string> responses;
    std::vector<double> chunkSeconds;
    double wall = 0.0, cpu = 0.0;
    cactid::SolveCacheCounters counters;
    std::size_t ok = 0, failed = 0;
};

ServePass
servePass(const Args &a, const std::vector<std::vector<std::string>> &parts)
{
    ServePass p;
    cactid::SolveCache cache;
    const cactid::tools::ServeOptions opts = serveOptions(a, cache);
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    for (const std::vector<std::string> &part : parts) {
        const auto tc = Clock::now();
        cactid::tools::ServeStats st;
        std::vector<std::string> r =
            cactid::tools::serveRequests(part, opts, &st);
        p.chunkSeconds.push_back(secondsSince(tc));
        p.ok += st.ok;
        p.failed += st.failed;
        for (std::string &line : r)
            p.responses.push_back(std::move(line));
    }
    p.wall = secondsSince(t0);
    p.cpu = processCpuSeconds() - cpu0;
    p.counters = cache.counters();
    return p;
}

/** Counters a pass's cache and ServeStats must show. */
void
checkPass(const ServePass &p, const std::vector<ServeLine> &lines,
          Report &rep)
{
    std::uint64_t hits = 0, misses = 0;
    expectedCacheCounts(lines, hits, misses);
    std::size_t bad = 0;
    for (const ServeLine &l : lines)
        bad += l.key.empty() ? 1 : 0;
    checkResponses(lines, p.responses, rep);
    rep.check(p.ok + p.failed == lines.size() && p.failed == bad,
              "ServeStats: " + std::to_string(p.ok) + " ok + " +
                  std::to_string(p.failed) + " failed, expected " +
                  std::to_string(lines.size() - bad) + " + " +
                  std::to_string(bad));
    const cactid::SolveCacheCounters &c = p.counters;
    rep.check(c.hits == hits && c.misses == misses &&
                  c.inserts == misses && c.evictions == 0,
              "solve cache counted " + std::to_string(c.hits) + " hits / " +
                  std::to_string(c.misses) + " misses / " +
                  std::to_string(c.inserts) + " inserts / " +
                  std::to_string(c.evictions) + " evictions, expected " +
                  std::to_string(hits) + " / " + std::to_string(misses) +
                  " / " + std::to_string(misses) + " / 0");
}

std::string
digestOf(const std::vector<std::string> &responses)
{
    Digest d;
    for (const std::string &r : responses) {
        d.add(r);
        d.add("\n");
    }
    return d.hex();
}

// The private response renderers of tools/serve.cc, reproduced so the
// replica can time rendering on its own; the replica comparison fails
// the moment they drift apart.

std::string
renderOk(const cactid::tools::ServeRequest &req, const std::string &fp,
         const SolveResult &res)
{
    const Solution &s = res.best;
    std::string out = "{\"index\":" + std::to_string(req.index);
    out += ",\"id\":\"" + cactid::obs::jsonEscape(req.id) + "\"";
    out += ",\"status\":\"ok\"";
    out += ",\"fingerprint\":\"" + fp + "\"";
    out += ",\"best\":{";
    out += "\"rows\":" + std::to_string(s.data.part.rowsPerSubarray);
    out += ",\"cols\":" + std::to_string(s.data.part.colsPerSubarray);
    out += ",\"blmux\":" + std::to_string(s.data.part.blMux);
    out += ",\"sammux\":" + std::to_string(s.data.part.samMux);
    out += ",\"mats\":" + std::to_string(s.data.nMats);
    out += ",\"subbanks\":" + std::to_string(s.nSubbanks);
    const std::pair<const char *, double> fields[] = {
        {"access_s", s.accessTime},
        {"random_cycle_s", s.randomCycle},
        {"interleave_cycle_s", s.interleaveCycle},
        {"total_area_m2", s.totalArea},
        {"area_efficiency", s.areaEfficiency},
        {"read_energy_j", s.readEnergy},
        {"write_energy_j", s.writeEnergy},
        {"leakage_w", s.leakage},
        {"refresh_w", s.refreshPower},
        {"trcd_s", s.tRcd},
        {"tcas_s", s.tCas},
        {"trp_s", s.tRp},
        {"tras_s", s.tRas},
        {"trc_s", s.tRc},
        {"trrd_s", s.tRrd},
        {"activate_energy_j", s.activateEnergy},
        {"read_burst_energy_j", s.readBurstEnergy},
        {"write_burst_energy_j", s.writeBurstEnergy},
        {"objective", s.objective},
    };
    for (const auto &[name, value] : fields)
        out += std::string(",\"") + name + "\":" + fmtDouble(value);
    out += "}";
    out += ",\"filtered\":" + std::to_string(res.filtered.size());
    out += ",\"explored\":" + std::to_string(res.stats.solutionsBuilt);
    return out + "}";
}

std::string
renderError(const cactid::tools::ServeRequest &req)
{
    using cactid::obs::jsonEscape;
    return "{\"index\":" + std::to_string(req.index) + ",\"id\":\"" +
           jsonEscape(req.id) + "\",\"status\":\"error\",\"message\":\"" +
           jsonEscape(req.error) + "\"}";
}

/** Batch totals the replica accumulates across chunks. */
struct BatchTotals {
    double requests = 0, unique = 0, cacheHits = 0, groups = 0;
    double solveSeconds = 0; ///< cold solves inside solveBatch
    std::unordered_set<std::string> solved; ///< keys of earlier chunks
};

/**
 * Add the cold-solve seconds of one solveBatch call to @p bt, from the
 * results' EngineStats: per share group of keys no earlier chunk
 * solved, the largest member totalSeconds (it covers the group's
 * shared pipeline and every member's objective pass).
 */
void
addSolveSeconds(const std::vector<MemoryConfig> &cfgs,
                const std::vector<SolveResult> &results, BatchTotals &bt)
{
    std::unordered_map<std::string, double> group_s;
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        std::string key = cactid::canonicalKey(cfgs[i]);
        if (bt.solved.count(key))
            continue;
        double &s = group_s[cactid::canonicalShareKey(cfgs[i])];
        s = std::max(s, results[i].stats.totalSeconds);
        keys.push_back(std::move(key));
    }
    for (const auto &g : group_s)
        bt.solveSeconds += g.second;
    bt.solved.insert(keys.begin(), keys.end());
}

/**
 * tools::serveRequests over one chunk, rebuilt from the public layer
 * calls (feasible batches only: the per-request fallback is not
 * replayed).
 */
std::vector<std::string>
replicaServe(const std::vector<std::string> &chunk,
             const cactid::tools::ServeOptions &opts, SpanLog &log,
             std::uint64_t group, BatchTotals &bt)
{
    std::vector<MemoryConfig> cfgs;
    std::vector<SolveResult> results;
    std::vector<std::string> out;
    {
        const SpanLog::Scope root(log, "replica.serve", group);
        std::vector<cactid::tools::ServeRequest> reqs;
        {
            const SpanLog::Scope s(log, "tools.serve.parse", group,
                                   root.id());
            for (std::size_t i = 0; i < chunk.size(); ++i)
                reqs.push_back(cactid::tools::parseServeRequest(chunk[i], i));
        }
        for (const cactid::tools::ServeRequest &r : reqs) {
            if (r.ok)
                cfgs.push_back(r.cfg);
        }
        std::vector<std::string> fps(reqs.size());
        {
            const SpanLog::Scope s(log, "core.fingerprint", group, root.id());
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                if (reqs[i].ok)
                    fps[i] = cactid::configFingerprint(reqs[i].cfg).hex();
            }
        }
        cactid::BatchStats bs;
        {
            const SpanLog::Scope s(log, "core.batch", group, root.id());
            results = cactid::SolverEngine(opts.solver).solveBatch(cfgs, &bs);
        }
        bt.requests += double(bs.requests);
        bt.unique += double(bs.uniqueSolves);
        bt.cacheHits += double(bs.cacheHits);
        bt.groups += double(bs.shareGroups);
        {
            const SpanLog::Scope s(log, "core.solve_cache.counters", group,
                                   root.id());
            (void)opts.solver.cache->counters();
        }
        {
            const SpanLog::Scope s(log, "tools.serve.render", group,
                                   root.id());
            std::size_t k = 0;
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                out.push_back(reqs[i].ok
                                  ? renderOk(reqs[i], fps[i], results[k++])
                                  : renderError(reqs[i]));
            }
        }
    }
    addSolveSeconds(cfgs, results, bt); // bookkeeping, outside the spans
    return out;
}

/**
 * What a serve client sets up before its first request: the solve
 * cache, as cactid-serve installs it, and the serve options.  The
 * request stream is the benchmark's input and is generated outside
 * the timed region.
 */
double
serveSetUpSeconds(const Args &a)
{
    return timeSetUp([&a] {
        cactid::SolveCache cache;
        const cactid::tools::ServeOptions opts = serveOptions(a, cache);
        escape(&opts);
    });
}

void
serveEndToEnd(const Args &a, Report &rep)
{
    const double setup_s = serveSetUpSeconds(a);
    const std::vector<ServeLine> lines = serveStream(a.seed);
    const std::vector<std::vector<std::string>> parts = chunks(lines);

    std::vector<double> walls, cpus;
    std::vector<std::vector<double>> latencies; // [pass][chunk]
    std::string first_digest;
    const auto t_measure = Clock::now();
    do {
        checkTracerOff(rep);
        const ServePass p = servePass(a, parts);
        rep.attempt(lines.size());
        walls.push_back(p.wall);
        cpus.push_back(p.cpu);
        latencies.push_back(p.chunkSeconds);
        checkPass(p, lines, rep);
        const std::string digest = digestOf(p.responses);
        if (first_digest.empty()) {
            first_digest = digest;
            Report::note("digest responses " + digest + " over " +
                         std::to_string(lines.size()) + " requests (" +
                         std::to_string(p.counters.misses) +
                         " cold solves, " + std::to_string(p.counters.hits) +
                         " cache hits)");
        }
        rep.check(digest == first_digest,
                  "serve pass " + std::to_string(walls.size()) +
                      " differs from the first (digest " + digest + ")");
    } while (secondsSince(t_measure) < a.seconds);

    const double req_per_s = double(lines.size()) / median(walls);
    Report::note("serve_req_per_s " + fmtDouble(req_per_s) + " (" +
                 std::to_string(lines.size()) + " requests per pass, "
                 "median of " + std::to_string(walls.size()) + " passes, " +
                 std::to_string(kServeChunk) + "-line calls; op_p50_ms / "
                 "op_p99_ms over " + std::to_string(parts.size()) +
                 " calls, each the median of its " +
                 std::to_string(latencies.size()) + " passes)");
    rep.set("setup_s", setup_s);
    rep.set("wall_s", median(walls));
    rep.set("cpu_s", median(cpus));
    rep.set("peak_rss_mb", peakRssMb());
    rep.set("work_rate", req_per_s);
    rep.set("op_p50_ms", opQuantile(latencies, 0.50) * 1e3);
    rep.set("op_p99_ms", opQuantile(latencies, 0.99) * 1e3);
}

void
serveTraced(const Args &a, Report &rep, SpanLog &log)
{
    const std::vector<ServeLine> lines = serveStream(a.seed);
    const std::vector<std::vector<std::string>> parts = chunks(lines);

    // Untraced reference pass.
    const ServePass plain = servePass(a, parts);
    rep.attempt(lines.size());
    checkPass(plain, lines, rep);
    Report::note("digest responses " + digestOf(plain.responses) + " over " +
                 std::to_string(lines.size()) + " requests");

    cactid::SolveCache real_cache, replica_cache;
    const cactid::tools::ServeOptions real = serveOptions(a, real_cache);
    const cactid::tools::ServeOptions replica = serveOptions(a, replica_cache);
    BatchTotals bt;
    std::size_t at = 0;
    for (std::size_t g = 0; g < parts.size(); ++g) {
        const std::uint64_t group = g + 1;
        rep.attempt(2 * parts[g].size());
        std::vector<std::string> want;
        {
            const SpanLog::Scope s(log, "tools.serve.requests", group);
            want = cactid::tools::serveRequests(parts[g], real);
        }
        std::vector<std::string> got;
        try {
            got = replicaServe(parts[g], replica, log, group, bt);
        } catch (const std::exception &e) {
            rep.fail("serve replica, chunk " + std::to_string(g) + ": " +
                     e.what());
        }
        bool same_as_plain = want.size() == parts[g].size();
        for (std::size_t i = 0; same_as_plain && i < want.size(); ++i)
            same_as_plain = want[i] == plain.responses[at + i];
        rep.check(same_as_plain, "serve chunk " + std::to_string(g) +
                                     " differs from the untraced pass");
        rep.check(got == want, "the layer replica differs from "
                               "tools::serveRequests on chunk " +
                                   std::to_string(g));
        at += parts[g].size();
    }

    const double requests = double(lines.size());
    const double parse_s = log.total("tools.serve.parse");
    const double parent = log.total("tools.serve.requests");
    const double children = log.childTotal("replica.serve");
    const double coverage = parent > 0 ? children / parent : 0.0;
    const cactid::SolveCacheCounters c = real_cache.counters();
    const double lookups = double(c.hits + c.misses);
    const double missed_unique = bt.unique - bt.cacheHits;
    rep.set("tools.serve.parse_s", parse_s);
    rep.set("tools.serve.parse.us_per_req", parse_s * 1e6 / requests);
    rep.set("core.fingerprint_s", log.total("core.fingerprint"));
    rep.set("core.batch_s", log.total("core.batch"));
    rep.set("core.batch.solve_s", bt.solveSeconds);
    rep.set("core.batch.unique_ratio",
            bt.requests > 0 ? bt.unique / bt.requests : 0.0);
    rep.set("core.batch.share_ratio",
            missed_unique > 0 ? bt.groups / missed_unique : 0.0);
    rep.set("core.solve_cache.hit_ratio",
            lookups > 0 ? double(c.hits) / lookups : 0.0);
    rep.set("core.solve_cache.hits", double(c.hits));
    rep.set("core.solve_cache.misses", double(c.misses));
    rep.set("core.solve_cache.inserts", double(c.inserts));
    rep.set("core.solve_cache.evictions", double(c.evictions));
    rep.set("tools.serve.other_s", parent - children);
    rep.set("tools.serve.coverage", coverage);
    Report::note("batch: " + fmtDouble(bt.requests) + " valid requests -> " +
                 fmtDouble(bt.unique) + " unique (" + fmtDouble(bt.cacheHits) +
                 " from the cache) -> " + fmtDouble(bt.groups) +
                 " share groups solved");
    Report::note("tools.serve.coverage " + fmtDouble(coverage) +
                 " = replica layer spans " + fmtDouble(children) +
                 " s / tools::serveRequests " + fmtDouble(parent) + " s" +
                 (coverage < 0.95 ? "  [below the 0.95 target]" : ""));
    auto pct = [parent](double s) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * s / parent);
        return std::string(buf);
    };
    Report::note("serve time as shares of tools::serveRequests (" +
                 fmtDouble(parent) + " s): cold solves " +
                 pct(bt.solveSeconds) + ", batch dedup and cache " +
                 pct(log.total("core.batch") - bt.solveSeconds) +
                 ", parse " + pct(parse_s) + ", fingerprint " +
                 pct(log.total("core.fingerprint")) + ", render " +
                 pct(log.total("tools.serve.render")) +
                 "; all but cold solves " + pct(parent - bt.solveSeconds));
    const double traced = log.total("replica.serve");
    rep.set("trace.overhead", traced / plain.wall);
    Report::note("trace.overhead " + fmtDouble(traced / plain.wall) +
                 " = traced replica pass " + fmtDouble(traced) +
                 " s / untraced pass " + fmtDouble(plain.wall) + " s");
}

} // namespace

void
designSpace(const Args &a, Report &r, SpanLog &log)
{
    if (a.trace)
        designTraced(a, r, log);
    else
        designEndToEnd(a, r);
}

void
serveMixed(const Args &a, Report &r, SpanLog &log)
{
    if (a.trace)
        serveTraced(a, r, log);
    else
        serveEndToEnd(a, r);
}

} // namespace perfbench
