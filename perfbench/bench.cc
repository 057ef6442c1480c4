/**
 * @file
 * perfbench plumbing: metric lists, the result line, host clocks, the
 * worker pool, the input generator and the span log.
 */

#include "bench.hh"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "obs/numfmt.hh"
#include "obs/trace.hh"

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

std::atomic<std::uint64_t> nextSpanId{1};

/** Failures printed in full; later ones are only counted. */
constexpr std::uint64_t kPrintedFailures = 20;

double
cpuClock(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

} // namespace

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},      {"wall_s", "s"},       {"cpu_s", "s"},
        {"peak_rss_mb", "MB"}, {"work_rate", "1/s"},  {"op_p50_ms", "ms"},
        {"op_p99_ms", "ms"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        // study / runner
        {"study.setup_s", "s"},
        {"study.table3_log_err", "ln"},
        {"runner.busy_s", "s"},
        {"runner.tail_s", "s"},
        {"runner.parallel_eff", "ratio"},
        {"runner.coverage", "ratio"},
        // sim/cpu
        {"sim.cpu.init_s", "s"},
        {"sim.cpu.run_s", "s"},
        {"sim.cpu.ns_per_instr", "ns"},
        {"sim.cpu.instructions", "count"},
        {"sim.cpu.cycles", "count"},
        // sim/cache, sim/dram: simulated counts
        {"sim.cache.l1_accesses", "count"},
        {"sim.cache.l2_accesses", "count"},
        {"sim.cache.l2_misses", "count"},
        {"sim.cache.c2c_transfers", "count"},
        {"sim.cache.llc_hit_ratio", "ratio"},
        {"sim.dir.evictions", "count"},
        {"sim.dir.overflows", "count"},
        {"sim.dram.reads", "count"},
        {"sim.dram.row_hit_ratio", "ratio"},
        // sim/power, sim/metrics, sim/thermal, export
        {"sim.power_s", "s"},
        {"sim.metrics.derive_s", "s"},
        {"sim.metrics.epochs", "count"},
        {"sim.thermal_s", "s"},
        {"sim.thermal.solves", "count"},
        {"sim.thermal.us_per_solve", "us"},
        {"sim.export_s", "s"},
        {"sim.export_bytes", "bytes"},
        // tech / array / core solver
        {"tech.init_s", "s"},
        {"core.tagpath_s", "s"},
        {"array.enumerate_s", "s"},
        {"array.partitions", "count"},
        {"core.evaluate_s", "s"},
        {"core.evaluate.us_per_candidate", "us"},
        {"core.feasible_ratio", "ratio"},
        {"core.optimizer_s", "s"},
        {"core.kept_ratio", "ratio"},
        {"core.engine.coverage", "ratio"},
        // core/fingerprint, core/solve_cache, tools/serve
        {"tools.serve.parse_s", "s"},
        {"tools.serve.parse.us_per_req", "us"},
        {"core.fingerprint_s", "s"},
        {"core.batch_s", "s"},
        {"core.batch.solve_s", "s"},
        {"core.batch.unique_ratio", "ratio"},
        {"core.batch.share_ratio", "ratio"},
        {"core.solve_cache.hit_ratio", "ratio"},
        {"core.solve_cache.hits", "count"},
        {"core.solve_cache.misses", "count"},
        {"core.solve_cache.inserts", "count"},
        {"core.solve_cache.evictions", "count"},
        {"tools.serve.other_s", "s"},
        {"tools.serve.coverage", "ratio"},
        // what the spans cost
        {"trace.overhead", "ratio"},
    };
    return defs;
}

void
Report::fail(const std::string &what)
{
    ++failed_;
    if (failed_ <= kPrintedFailures)
        std::printf("FAIL %s\n", what.c_str());
    else if (failed_ == kPrintedFailures + 1)
        std::printf("FAIL (further failures are counted, not printed)\n");
}

bool
Report::check(bool ok, const std::string &what)
{
    if (!ok)
        fail(what);
    return ok;
}

void
Report::note(const std::string &line)
{
    std::printf("%s\n", line.c_str());
}

void
printResult(Report &r, const std::vector<MetricDef> &defs, bool required)
{
    using cactid::obs::fmtDouble;
    for (const auto &[name, value] : r.values()) {
        const bool known =
            std::any_of(defs.begin(), defs.end(),
                        [&](const MetricDef &d) { return name == d.name; });
        r.check(known, "metric " + name + " is not reported by this run");
    }
    std::vector<double> values;
    for (const MetricDef &d : defs) {
        const auto it = r.values().find(d.name);
        double v = 0.0;
        if (it != r.values().end())
            v = it->second;
        else
            r.check(!required, std::string("metric ") + d.name +
                                   " was not measured");
        if (!std::isfinite(v)) {
            r.fail(std::string("metric ") + d.name + " is not finite");
            v = 0.0;
        }
        values.push_back(v);
    }
    if (r.attempted() == 0) {
        r.fail("no operation was attempted");
        r.attempt();
    }

    std::printf("metrics:\n");
    std::string json = std::string("{\"correct\": ") +
                       (r.failed() == 0 ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(r.attempted()) +
                       ", \"failed\": " + std::to_string(r.failed()) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        std::printf("  %-34s %14.6g %s\n", defs[i].name, values[i],
                    defs[i].unit);
        json += std::string(i ? ", \"" : "\"") + defs[i].name +
                "\": {\"value\": " + fmtDouble(values[i]) +
                ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    json += "}}";
    std::printf("fail_frac %.6g (%llu failed of %llu attempted)\n",
                double(r.failed()) / double(r.attempted()),
                static_cast<unsigned long long>(r.failed()),
                static_cast<unsigned long long>(r.attempted()));
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

void
checkTracerOff(Report &r)
{
    r.check(!cactid::obs::Tracer::instance().enabled(),
            "the global obs::Tracer is recording");
}

double
now()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
processCpuSeconds()
{
    return cpuClock(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuSeconds()
{
    return cpuClock(CLOCK_THREAD_CPUTIME_ID);
}

double
peakRssMb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return double(u.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * double(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
opQuantile(const std::vector<std::vector<double>> &passes, double q)
{
    std::vector<double> per_op;
    for (std::size_t i = 0; !passes.empty() && i < passes[0].size(); ++i) {
        std::vector<double> v;
        for (const std::vector<double> &p : passes)
            v.push_back(p.at(i));
        per_op.push_back(median(std::move(v)));
    }
    return quantile(std::move(per_op), q);
}

double
timeSetUp(const std::function<void()> &setUp)
{
    constexpr double kBatchS = 0.004;
    auto batch = [&](std::size_t calls) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < calls; ++i)
            setUp();
        return secondsSince(t0);
    };
    std::size_t calls = 1;
    while (batch(calls) < kBatchS)
        calls *= 2;
    std::vector<double> per_call;
    for (int i = 0; i < kSetupReps; ++i)
        per_call.push_back(batch(calls) / double(calls));
    return median(per_call);
}

void
parallelFor(std::size_t n, int jobs,
            const std::function<void(std::size_t, int)> &body)
{
    const int workers = static_cast<int>(std::min<std::size_t>(
        std::max(jobs, 1), std::max<std::size_t>(n, 1)));
    std::atomic<std::size_t> next{0};
    std::mutex err_mtx;
    std::exception_ptr first_error;
    auto work = [&](int w) {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1)) {
            try {
                body(i, w);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(err_mtx);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };
    if (workers == 1) {
        work(0);
    } else {
        std::vector<std::jthread> pool; // joins on every exit path
        pool.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w)
            pool.emplace_back(work, w);
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

SpanLog::Scope::Scope(SpanLog &log, const char *name, std::uint64_t group,
                      std::uint64_t parent)
    : log_(log)
{
    span_.name = name;
    span_.id = nextSpanId.fetch_add(1, std::memory_order_relaxed);
    span_.parent = parent;
    span_.group = group;
    span_.track = log.track_;
    span_.start = now();
}

SpanLog::Scope::~Scope()
{
    span_.end = now();
    try {
        log_.spans_.push_back(span_);
    } catch (...) {
        ++log_.dropped_;
    }
}

void
SpanLog::merge(const SpanLog &other)
{
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
    dropped_ += other.dropped_;
}

double
SpanLog::total(std::string_view name) const
{
    double t = 0.0;
    for (const Span &s : spans_) {
        if (name == s.name)
            t += s.end - s.start;
    }
    return t;
}

double
SpanLog::childTotal(std::string_view parent) const
{
    std::unordered_set<std::uint64_t> parents;
    for (const Span &s : spans_) {
        if (parent == s.name)
            parents.insert(s.id);
    }
    double t = 0.0;
    for (const Span &s : spans_) {
        if (parents.count(s.parent))
            t += s.end - s.start;
    }
    return t;
}

std::size_t
SpanLog::count(std::string_view name) const
{
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span &s) { return name == s.name; }));
}

bool
SpanLog::write(const std::string &path) const
{
    using cactid::obs::fmtDouble;
    std::vector<Span> sorted = spans_;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Span &a, const Span &b) {
                         return a.start < b.start;
                     });
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\": \"ms\", \"droppedSpans\": " << dropped_
       << ", \"traceEvents\": [";
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const Span &s = sorted[i];
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
           << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": "
           << fmtDouble(s.start * 1e6)
           << ", \"dur\": " << fmtDouble((s.end - s.start) * 1e6)
           << ", \"pid\": 1, \"tid\": " << s.track
           << ", \"args\": {\"id\": " << s.id << ", \"parent\": "
           << s.parent << ", \"group\": " << s.group << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
