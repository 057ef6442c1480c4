/**
 * @file
 * perfbench: the repository benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans-out FILE]
 *
 * Runs one workload (study_sweep, manycore_sim, design_space,
 * serve_mixed), checks its outputs and prints a metric table; the last
 * stdout line is the JSON result.  --trace 0 measures the end-to-end
 * metrics with every span off.  --trace 1 re-runs the workload's
 * layers from this driver under spans and reports the per-layer
 * metrics.  Exit status: 0 all outputs correct, 1 a correctness
 * failure, 2 bad usage, 3 a build that must not record figures.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hh"
#include "obs/build_info.hh"
#include "obs/numfmt.hh"

namespace {

using namespace perfbench;

struct Workload {
    const char *name;
    void (*run)(const Args &, Report &, SpanLog &);
};

constexpr Workload kWorkloads[] = {
    {"study_sweep", studySweep},
    {"manycore_sim", manycoreSim},
    {"design_space", designSpace},
    {"serve_mixed", serveMixed},
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "perfbench: %s needs a value\n",
                         flag.c_str());
            return false;
        }
        const std::string value = argv[i + 1];
        char *end = nullptr;
        bool ok = !value.empty();
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            ok = ok && *end == '\0' && value[0] != '-';
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            ok = ok && *end == '\0' && a.seconds > 0 && a.seconds <= 3600;
        } else if (flag == "--trace") {
            ok = value == "0" || value == "1";
            a.trace = value == "1";
        } else if (flag == "--spans-out") {
            a.spansOut = value;
        } else {
            std::fprintf(stderr, "perfbench: unknown flag %s\n",
                         flag.c_str());
            return false;
        }
        if (!ok) {
            std::fprintf(stderr, "perfbench: bad value for %s: '%s'\n",
                         flag.c_str(), value.c_str());
            return false;
        }
    }
    return true;
}

/** Why this build must not record figures; empty when it may. */
std::string
refusal(const cactid::obs::BuildInfo &b)
{
    if (b.flags.find("-fsanitize") != std::string::npos)
        return "a sanitizer build (" + b.flags + ")";
    if (b.flags.find("-O2") == std::string::npos &&
        b.flags.find("-O3") == std::string::npos)
        return "a build without -O2/-O3 (flags '" + b.flags + "')";
    return "";
}

void
printStamp(const Args &a)
{
    using cactid::obs::jsonEscape;
    const cactid::obs::BuildInfo &b = cactid::obs::buildInfo();
    std::printf("stamp {\"git\": \"%s\", \"compiler\": \"%s\", "
                "\"flags\": \"%s\", \"build_type\": \"%s\", "
                "\"tracing_compiled\": %s, \"nproc\": %d, "
                "\"seed\": %llu, \"workload\": \"%s\", \"trace\": %d, "
                "\"seconds\": %g}\n",
                jsonEscape(b.gitDescribe).c_str(),
                jsonEscape(b.compiler).c_str(), jsonEscape(b.flags).c_str(),
                jsonEscape(b.buildType).c_str(),
                b.tracingCompiled ? "true" : "false", a.cpus,
                static_cast<unsigned long long>(a.seed),
                jsonEscape(a.workload).c_str(), a.trace ? 1 : 0, a.seconds);
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a))
        return 2;
    const Workload *w = nullptr;
    for (const Workload &k : kWorkloads) {
        if (a.workload == k.name)
            w = &k;
    }
    if (!w) {
        std::fprintf(stderr,
                     "perfbench: --workload must be one of study_sweep, "
                     "manycore_sim, design_space, serve_mixed\n");
        return 2;
    }
    a.cpus = availableCpus();
    printStamp(a);
    const std::string why = refusal(cactid::obs::buildInfo());
    if (!why.empty()) {
        std::fprintf(stderr, "perfbench: refusing to record figures from %s\n",
                     why.c_str());
        return 3;
    }

    Report r;
    SpanLog log;
    checkTracerOff(r);
    try {
        w->run(a, r, log);
    } catch (const std::exception &e) {
        r.attempt();
        r.fail(std::string("workload threw: ") + e.what());
    }
    checkTracerOff(r);
    if (a.trace && !a.spansOut.empty()) {
        if (r.check(log.write(a.spansOut),
                    "cannot write spans to " + a.spansOut))
            Report::note("spans " + std::to_string(log.size()) +
                         " written to " + a.spansOut);
    }
    printResult(r, a.trace ? perLayerMetrics() : endToEndMetrics(),
                !a.trace);
    return r.failed() == 0 ? 0 : 1;
}
