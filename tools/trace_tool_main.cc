/**
 * @file
 * The `archsim-trace` tool: dump a synthetic workload to the portable
 * trace format, or replay a trace file through one of the study's six
 * system configurations.
 *
 * Usage:
 *   archsim-trace dump <workload> <n-per-thread> [threads] > t.trace
 *   archsim-trace run  <trace-file> <config> [n-per-thread]
 *
 * Exit codes: 0 success; 2 usage error, unknown workload or config, or
 * an unreadable trace file; 3 internal error.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "sim/study.hh"
#include "sim/workload/trace_file.hh"
#include "tools/cli.hh"
#include "util/parse.hh"

namespace {

constexpr const char *kTool = "archsim-trace";

void
printHelp()
{
    std::printf(
        "archsim-trace - dump / replay instruction traces\n"
        "\n"
        "usage:\n"
        "  archsim-trace dump <workload> <n-per-thread> [threads=32]\n"
        "      write a synthetic trace to stdout (e.g. 'ft.B')\n"
        "  archsim-trace run <trace-file> <config> [n-per-thread]\n"
        "      replay through a study configuration (nol3, sram,\n"
        "      lp_dram_ed, lp_dram_c, cm_dram_ed, cm_dram_c)\n");
}

/** @p text as a whole decimal count >= 1, else a usage error. */
template <class T>
T
countArg(const char *text, const char *name)
{
    T v{};
    if (!cactid::util::parseNumber(text, v) || v < 1)
        throw std::invalid_argument(std::string(name) +
                                    " needs an integer >= 1 (got " + text +
                                    ")");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace archsim;
    const bool arity = argc == 4 || argc == 5;
    const bool dump = arity && !std::strcmp(argv[1], "dump");
    const bool run = arity && !std::strcmp(argv[1], "run");
    if (!dump && !run) {
        printHelp();
        return 2;
    }

    return cactid::tools::runGuarded(kTool, [&] {
        if (dump) {
            const auto n = countArg<std::uint64_t>(argv[3], "n-per-thread");
            const int threads =
                argc == 5 ? countArg<int>(argv[4], "threads") : 32;
            const WorkloadParams w = npbWorkload(argv[2]);
            writeTrace(std::cout, w, threads, n);
            return 0;
        }
        const std::uint64_t n =
            argc == 5 ? countArg<std::uint64_t>(argv[4], "n-per-thread")
                      : 100000;
        std::ifstream f(argv[2]);
        if (!f)
            throw std::invalid_argument(std::string("cannot open ") +
                                        argv[2]);
        const TraceFile trace = TraceFile::load(f);

        Study study;
        System sys(study.hierarchyFor(argv[3]), trace, n);
        const SimStats s = sys.run();
        const PowerBreakdown b = computePower(study.powerFor(argv[3]), s);
        std::printf("trace replay on %s: %llu instructions, IPC "
                    "%.2f, read latency %.1f cycles\n",
                    argv[3], static_cast<unsigned long long>(s.instructions),
                    s.ipc, s.avgReadLatency);
        std::printf("memory hierarchy power %.2f W, system %.2f W, "
                    "exec %.3f ms\n",
                    b.memoryHierarchy(), b.system(), b.execSeconds * 1e3);
        return 0;
    });
}
