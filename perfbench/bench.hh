/**
 * @file
 * Shared plumbing of the perfbench driver: run arguments, the metric
 * lists and result line, host clocks, a worker pool, the seeded input
 * generator, output digests and the in-memory span log of traced runs.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** One benchmark invocation (perfbench/run.py forwards its flags). */
struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0; ///< how long the timed phase measures
    bool trace = false;    ///< per-layer (traced) run
    std::string spansOut;  ///< where a traced run writes its spans
    int cpus = 1;          ///< CPUs this process may run on (nproc)
};

/** A metric of the result line: its name and unit. */
struct MetricDef {
    const char *name;
    const char *unit;
};

/** What an untraced run reports (BENCHMARK.json "end_to_end"). */
const std::vector<MetricDef> &endToEndMetrics();

/** What a traced run reports (BENCHMARK.json "per_layer"). */
const std::vector<MetricDef> &perLayerMetrics();

/**
 * Operation counts, metric values and failures of one run.  A failure
 * is an operation that threw, returned an unexpected status or failed
 * a correctness check; each is printed as it is recorded.  Not
 * thread-safe: workers hand results back and the main thread checks.
 */
class Report
{
  public:
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    void fail(const std::string &what);

    /** fail(@p what) unless @p ok; returns @p ok. */
    bool check(bool ok, const std::string &what);

    void set(const std::string &name, double value) { values_[name] = value; }

    /** A human-readable stdout line (the result line stays last). */
    static void note(const std::string &line);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::map<std::string, double> &values() const { return values_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::map<std::string, double> values_;
};

/**
 * Print the metric table and then, as the last stdout line, the JSON
 * result {"correct", "attempted", "failed", "metrics"} over @p defs.
 * With @p required every metric must have been set; otherwise unset
 * ones read 0, a layer this workload does not reach.
 */
void printResult(Report &r, const std::vector<MetricDef> &defs,
                 bool required);

/** Fail @p r when the global obs::Tracer is recording. */
void checkTracerOff(Report &r);

// --- Host measurements.

/** Steady-clock seconds since the process started. */
double now();
double secondsSince(Clock::time_point start);
/** User + system CPU seconds of the process, all threads. */
double processCpuSeconds();
/** CPU seconds of the calling thread. */
double threadCpuSeconds();
/** Peak resident set size of the process, in MiB. */
double peakRssMb();
/** CPUs in the process affinity mask (what `nproc` prints). */
int availableCpus();

double median(std::vector<double> v);
/** Nearest-rank quantile @p q in (0, 1]; 0 for no samples. */
double quantile(std::vector<double> v, double q);

/**
 * Latency quantile over operations that every pass repeats:
 * @p passes[p][i] is operation i's seconds in pass p.  Each operation
 * first gets its median across passes, so one slow pass does not set
 * the tail; quantile() then runs over those medians.
 */
double opQuantile(const std::vector<std::vector<double>> &passes, double q);

/** Timed set-ups per run; every setup_s is the median of this many. */
constexpr int kSetupReps = 9;

/**
 * Median seconds of one @p setUp call over kSetupReps timed batches.
 * A batch repeats the call often enough to run for a few milliseconds,
 * so a set-up of a few nanoseconds still reads steadily; a slow one
 * runs once per batch.
 */
double timeSetUp(const std::function<void()> &setUp);

/** Keep @p p (and what it points to) from being optimised away. */
inline void
escape(const void *p)
{
    __asm__ __volatile__("" : : "g"(p) : "memory");
}

/**
 * Call body(i, worker) for every i in [0, n) from @p jobs threads that
 * take indices in order.  The first exception a body throws is
 * rethrown once every worker has joined.
 */
void parallelFor(std::size_t n, int jobs,
                 const std::function<void(std::size_t, int)> &body);

/** splitmix64: the seeded source of every generated input. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}

    std::uint64_t next();
    /** Index in [0, n), n > 0. */
    std::size_t below(std::size_t n) { return next() % n; }

  private:
    std::uint64_t s_;
};

/** FNV-1a over every byte added: the printed correctness digests. */
class Digest
{
  public:
    void add(std::string_view bytes) { h_ = cactid::util::fnv1a64(bytes, h_); }
    std::string hex() const { return cactid::util::hex16(h_); }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --- Spans.

/** One timed call into a layer, in now() seconds. */
struct Span {
    const char *name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 for a root span
    std::uint64_t group = 0;  ///< the run, solve or batch it serves
    int track = 0;            ///< the worker that recorded it
    double start = 0.0;
    double end = 0.0;
};

/**
 * The spans one thread recorded, kept in memory until the run ends.
 * Each worker owns a log; the run merges them after the join.
 */
class SpanLog
{
  public:
    explicit SpanLog(int track = 0) : track_(track) {}

    /** Records the enclosing scope as one span of a log. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name, std::uint64_t group,
              std::uint64_t parent = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        std::uint64_t id() const { return span_.id; }

      private:
        SpanLog &log_;
        Span span_;
    };

    void merge(const SpanLog &other);

    /** Summed duration of the spans named @p name. */
    double total(std::string_view name) const;
    /** Summed duration of the children of spans named @p parent. */
    double childTotal(std::string_view parent) const;
    std::size_t count(std::string_view name) const;
    std::size_t size() const { return spans_.size(); }

    /** Write Chrome trace-event JSON (loads in Perfetto). */
    bool write(const std::string &path) const;

  private:
    int track_;
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0; ///< spans lost to allocation failure
};

// --- The workloads (see perfbench/README.md for why each exists).
// Each measures end to end, or with a.trace re-runs its layers from
// this driver under spans recorded into @p log.

void studySweep(const Args &a, Report &r, SpanLog &log);
void manycoreSim(const Args &a, Report &r, SpanLog &log);
void designSpace(const Args &a, Report &r, SpanLog &log);
void serveMixed(const Args &a, Report &r, SpanLog &log);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
