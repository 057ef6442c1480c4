/**
 * @file
 * Tests for the trace-file workload support.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/cpu/system.hh"
#include "sim/workload/trace_file.hh"

namespace {

using namespace archsim;

TEST(TraceFile, OpCodesRoundTrip)
{
    for (Op op : {Op::Fp, Op::Other, Op::Load, Op::Store, Op::Barrier,
                  Op::Lock, Op::Unlock}) {
        EXPECT_EQ(static_cast<int>(opFromCode(opCode(op))),
                  static_cast<int>(op));
    }
    EXPECT_THROW(opFromCode('X'), std::invalid_argument);
}

TEST(TraceFile, LoadsSimpleTrace)
{
    std::istringstream in(R"(# comment
0 L 1000
0 F
1 S 2040
1 O
)");
    const TraceFile t = TraceFile::load(in);
    ASSERT_EQ(t.threads(), 2);
    ASSERT_EQ(t.thread(0).size(), 2u);
    EXPECT_EQ(static_cast<int>(t.thread(0)[0].op),
              static_cast<int>(Op::Load));
    EXPECT_EQ(t.thread(0)[0].addr, 0x1000u);
    EXPECT_EQ(t.thread(1)[0].addr, 0x2040u);
}

TEST(TraceFile, RejectsMalformedLines)
{
    std::istringstream bad_op("0 Z 1000\n");
    EXPECT_THROW(TraceFile::load(bad_op), std::invalid_argument);
    std::istringstream no_addr("0 L\n");
    EXPECT_THROW(TraceFile::load(no_addr), std::invalid_argument);
    std::istringstream garbage("hello world\n");
    EXPECT_THROW(TraceFile::load(garbage), std::exception);

    // Each field is one whole token, and every error names its line.
    for (const char *text :
         {"0 L zz\n", "0 L 12zz\n", "0 L 1ffffffffffffffffff\n",
          "0 L -40\n", "0 L 0x40\n", "0 F 40\n", "0 L 40 7\n",
          "-1 F\n", "1x F\n", "0 FF\n", "70000 F\n",
          "65536 F\n"}) {
        std::istringstream in(std::string("0 F\n") + text);
        try {
            const TraceFile t = TraceFile::load(in);
            ADD_FAILURE() << "accepted " << text << "(" << t.threads()
                          << " threads)";
        } catch (const std::invalid_argument &e) {
            EXPECT_EQ(std::string(e.what()).rfind("trace line 2: ", 0), 0u)
                << text << ": " << e.what();
        }
    }
    std::istringstream top_id("65535 F\n");
    EXPECT_EQ(TraceFile::load(top_id).threads(), 65536);
}

TEST(TraceFile, SourceLoops)
{
    std::istringstream in("0 L 40\n0 F\n");
    const TraceFile t = TraceFile::load(in);
    auto src = t.source(0);
    EXPECT_EQ(src->next().addr, 0x40u);
    EXPECT_EQ(static_cast<int>(src->next().op),
              static_cast<int>(Op::Fp));
    EXPECT_EQ(src->next().addr, 0x40u); // wrapped
}

TEST(TraceFile, WriteThenLoadRoundTrip)
{
    WorkloadParams w;
    w.name = "rt";
    w.memFrac = 0.4;
    w.barrierEvery = 0;
    std::stringstream buf;
    writeTrace(buf, w, 4, 500);
    const TraceFile t = TraceFile::load(buf);
    ASSERT_EQ(t.threads(), 4);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(t.thread(i).size(), 500u);
}

TEST(TraceFile, WriteRejectsNonPositiveThreadCount)
{
    WorkloadParams w;
    w.name = "none";
    for (int threads : {0, -1}) {
        std::stringstream buf;
        EXPECT_THROW(writeTrace(buf, w, threads, 10), std::invalid_argument)
            << threads << " threads";
        EXPECT_TRUE(buf.str().empty()) << threads << " threads";
    }
}

TEST(TraceFile, ReplayMatchesGeneratorTiming)
{
    // Recording the generator and replaying it must give the same
    // cycle count as running the generator directly.
    WorkloadParams w;
    w.name = "replay";
    w.memFrac = 0.3;
    w.hotFrac = 0.8;
    w.hotBytes = 8 << 10;
    w.wsBytes = 1 << 20;
    w.barrierEvery = 2000;

    HierarchyParams hp;
    hp.l1Bytes = 4 << 10;
    hp.l2Bytes = 64 << 10;

    const int n = 3000;
    std::stringstream buf;
    writeTrace(buf, w, 8, n * 2); // record more than the budget
    const TraceFile trace = TraceFile::load(buf);

    System direct(hp, w, n, 2, 4);
    System replay(hp, trace, n, 2, 4);
    const SimStats a = direct.run();
    const SimStats b = replay.run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(TraceFile, SystemRejectsUndersizedTrace)
{
    std::istringstream in("0 F\n");
    const TraceFile t = TraceFile::load(in);
    HierarchyParams hp;
    hp.l1Bytes = 4 << 10;
    hp.l2Bytes = 64 << 10;
    EXPECT_THROW(System(hp, t, 100, 2, 4), std::invalid_argument);
}

} // namespace
