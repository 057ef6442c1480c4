/**
 * @file
 * StudyRunner tests: the worker pool must reproduce the serial sweep
 * bit-for-bit (aggregates, per-epoch streams, and the exported JSON
 * bytes) for any jobs count, and the epoch streams must tile the run
 * exactly.  Also the fan-out under the pool (and under solveBatch):
 * every index exactly once at any width, even when no thread starts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/runner.hh"
#include "util/fan_out.hh"

using namespace archsim;

namespace {

/** One Study for the whole file: its CACTI solves dominate setup. */
class RunnerTest : public ::testing::Test
{
  public:
    static void SetUpTestSuite() { study_ = new Study(); }
    static void TearDownTestSuite()
    {
        delete study_;
        study_ = nullptr;
    }

    /** Small sweep: 2 configs x 2 workloads, epoch sampling on. */
    static RunnerOptions smallSweep(int jobs)
    {
        RunnerOptions o;
        o.jobs = jobs;
        o.instrPerThread = 3000;
        o.epochCycles = 2000;
        o.configs = {"nol3", "cm_dram_ed"};
        o.workloads = {"ft.B", "cg.C"};
        return o;
    }

    static Study *study_;
};

Study *RunnerTest::study_ = nullptr;

std::string
sweepJson(const Study &study, int jobs)
{
    const StudyRunner runner(study, RunnerTest::smallSweep(jobs));
    std::ostringstream os;
    exportJson(os, runner.runAll(), runner);
    return os.str();
}

} // namespace

// Satellite 4 (the tentpole's determinism contract): a sweep with
// jobs=8 must be byte-identical to jobs=1, including every epoch.
TEST_F(RunnerTest, ParallelSweepBitIdenticalToSerial)
{
    const std::string serial = sweepJson(*study_, 1);
    EXPECT_EQ(sweepJson(*study_, 4), serial);
    EXPECT_EQ(sweepJson(*study_, 8), serial);
}

TEST_F(RunnerTest, ParallelAggregatesAndEpochsMatchSerial)
{
    const StudyRunner serial(*study_, smallSweep(1));
    const StudyRunner pooled(*study_, smallSweep(8));
    const std::vector<RunResult> a = serial.runAll();
    const std::vector<RunResult> b = pooled.runAll();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].config, b[i].config);
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].stats.cycles, b[i].stats.cycles);
        EXPECT_EQ(a[i].stats.instructions, b[i].stats.instructions);
        EXPECT_EQ(a[i].stats.ipc, b[i].stats.ipc); // exact, not near
        EXPECT_EQ(a[i].power.memoryHierarchy(),
                  b[i].power.memoryHierarchy());
        EXPECT_EQ(a[i].thermal.maxTemp, b[i].thermal.maxTemp);
        ASSERT_EQ(a[i].epochs.size(), b[i].epochs.size());
        for (std::size_t e = 0; e < a[i].epochs.size(); ++e) {
            EXPECT_EQ(a[i].epochs[e].beginCycle,
                      b[i].epochs[e].beginCycle);
            EXPECT_EQ(a[i].epochs[e].instructions,
                      b[i].epochs[e].instructions);
            EXPECT_EQ(a[i].epochs[e].ipc, b[i].epochs[e].ipc);
            EXPECT_EQ(a[i].epochs[e].memHierPowerW,
                      b[i].epochs[e].memHierPowerW);
        }
    }
}

TEST_F(RunnerTest, RunOneMatchesSweepSlot)
{
    const StudyRunner runner(*study_, smallSweep(2));
    const std::vector<RunResult> runs = runner.runAll();
    const RunResult one = runner.runOne("cm_dram_ed", "ft.B");
    // Sweep order is workload-major: ft.B/nol3, ft.B/cm_dram_ed, ...
    ASSERT_EQ(runs[1].config, "cm_dram_ed");
    ASSERT_EQ(runs[1].workload, "ft.B");
    EXPECT_EQ(one.stats.cycles, runs[1].stats.cycles);
    EXPECT_EQ(one.stats.ipc, runs[1].stats.ipc);
    EXPECT_EQ(one.epochs.size(), runs[1].epochs.size());
}

TEST_F(RunnerTest, EpochStreamTilesTheRun)
{
    const StudyRunner runner(*study_, smallSweep(1));
    for (const RunResult &r : runner.runAll()) {
        ASSERT_FALSE(r.epochs.empty());
        std::uint64_t instr_sum = 0;
        Cycle prev_end = 0;
        for (std::size_t e = 0; e < r.epochs.size(); ++e) {
            const EpochSample &ep = r.epochs[e];
            EXPECT_EQ(ep.index, static_cast<int>(e));
            // Contiguous, non-empty, at-least-interval epochs (the
            // final one may be the short remainder).
            EXPECT_EQ(ep.beginCycle, prev_end);
            EXPECT_GT(ep.endCycle, ep.beginCycle);
            if (e + 1 < r.epochs.size()) {
                EXPECT_GE(ep.cycles(), 2000u);
            }
            prev_end = ep.endCycle;
            instr_sum += ep.instructions;
        }
        EXPECT_EQ(prev_end, r.stats.cycles);
        EXPECT_EQ(instr_sum, r.stats.instructions);
    }
}

TEST_F(RunnerTest, EpochSamplingOffByDefault)
{
    RunnerOptions o = smallSweep(1);
    o.epochCycles = 0;
    const StudyRunner runner(*study_, o);
    for (const RunResult &r : runner.runAll())
        EXPECT_TRUE(r.epochs.empty());
}

TEST_F(RunnerTest, UnknownNamesThrow)
{
    RunnerOptions bad_cfg;
    bad_cfg.configs = {"no_such_config"};
    EXPECT_THROW(StudyRunner(*study_, bad_cfg),
                 std::invalid_argument);

    RunnerOptions bad_wl;
    bad_wl.workloads = {"no_such_workload"};
    EXPECT_THROW(StudyRunner(*study_, bad_wl), std::invalid_argument);

    const StudyRunner runner(*study_, smallSweep(1));
    EXPECT_THROW(runner.runOne("no_such_config", "ft.B"),
                 std::invalid_argument);
}

TEST_F(RunnerTest, DefaultsCoverTheFullStudy)
{
    const StudyRunner runner(*study_, RunnerOptions{});
    EXPECT_EQ(runner.configs().size(), 6u);
    EXPECT_EQ(runner.workloads().size(), 8u);
    EXPECT_EQ(runner.instrPerThread(), defaultInstrPerThread());
}

TEST(RunnerJobs, ResolveJobs)
{
    EXPECT_EQ(StudyRunner::resolveJobs(3), 3);
    EXPECT_GE(StudyRunner::resolveJobs(0), 1);
}

TEST(EpochRecorderTest, ZeroIntervalThrows)
{
    EXPECT_THROW(EpochRecorder rec(0), std::invalid_argument);
}

// --- The fan-out -----------------------------------------------------

namespace {

using cactid::util::fanOut;

/** What one fanOut call did with its indices. */
struct FanOutLog {
    std::vector<int> calls;       ///< times each index ran
    std::size_t peakInFlight = 0; ///< most indices running at once
};

/**
 * fanOut(n, width) over indices that each wait (for at most 10 s)
 * until min(n, width) of them have been in flight at once, so the
 * peak shows the width the call really ran at.
 */
FanOutLog
logFanOut(std::size_t n, int width)
{
    const std::size_t want = std::min<std::size_t>(n, width);
    std::vector<std::atomic<int>> calls(n);
    std::atomic<std::size_t> in_flight{0};
    std::atomic<std::size_t> peak{0};
    fanOut(n, width, [&](std::size_t i) {
        ++calls[i];
        const std::size_t now = ++in_flight;
        std::size_t seen = peak;
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (peak < want && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        --in_flight;
    });
    FanOutLog log;
    for (const std::atomic<int> &c : calls)
        log.calls.push_back(c);
    log.peakInFlight = peak;
    return log;
}

} // namespace

TEST(FanOut, WidthOneRunsInlineInOrder)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    fanOut(5, 1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(FanOut, WidthNRunsEveryIndexOnceAtWidthN)
{
    const FanOutLog log = logFanOut(4, 4);
    EXPECT_EQ(log.calls, std::vector<int>(4, 1));
    EXPECT_EQ(log.peakInFlight, 4u);
}

TEST(FanOut, WidthAboveNRunsEveryIndexOnce)
{
    const FanOutLog log = logFanOut(3, 16);
    EXPECT_EQ(log.calls, std::vector<int>(3, 1));
    EXPECT_EQ(log.peakInFlight, 3u);
    EXPECT_EQ(logFanOut(0, 16).calls.size(), 0u);
}

TEST(FanOut, ThrowingIndexStopsNoOtherAndRethrowsAfterJoin)
{
    for (const int width : {1, 3}) {
        SCOPED_TRACE("width " + std::to_string(width));
        std::vector<std::atomic<int>> calls(6);
        EXPECT_THROW(fanOut(6, width,
                            [&](std::size_t i) {
                                ++calls[i];
                                if (i == 1)
                                    throw std::runtime_error("index 1");
                            }),
                     std::runtime_error);
        for (const std::atomic<int> &c : calls)
            EXPECT_EQ(c, 1);
    }
}

TEST(FanOut, ThreadsThatCannotStartLeaveTheWorkToTheCaller)
{
    // A forked child lowers RLIMIT_NPROC to 0, so every thread the
    // fan-out asks for fails to start (EAGAIN); the caller alone must
    // still run each index once and return.
    if (::geteuid() == 0)
        GTEST_SKIP() << "root is exempt from RLIMIT_NPROC";
#if defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "TSan refuses to start threads after a fork";
#endif
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // The child reports through its exit code only; nothing may
        // unwind into the test runner it was forked from.
        try {
            rlimit lim{};
            if (::getrlimit(RLIMIT_NPROC, &lim) != 0)
                ::_exit(2);
            lim.rlim_cur = 0;
            if (::setrlimit(RLIMIT_NPROC, &lim) != 0)
                ::_exit(2);
            const std::thread::id caller = std::this_thread::get_id();
            std::vector<int> calls(8, 0);
            bool elsewhere = false;
            fanOut(calls.size(), 4, [&](std::size_t i) {
                ++calls[i];
                elsewhere |= std::this_thread::get_id() != caller;
            });
            const bool once =
                std::all_of(calls.begin(), calls.end(),
                            [](int c) { return c == 1; });
            ::_exit(once && !elsewhere ? 0 : 1);
        } catch (...) {
            ::_exit(3);
        }
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "1: an index ran twice, never or off the caller; "
           "2: setrlimit failed; 3: fanOut threw";
}
