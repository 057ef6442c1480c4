/**
 * @file
 * Tests for the tools' flag-table walker: switches, text, repeatable
 * text and bounded numbers parse from one table entry each; the first
 * usage error is one stderr line and exit 2; --help and --version exit
 * 0; usage() lists every entry; runGuarded maps exceptions to exit
 * codes; the `--cache-dir` cache warns once, under the tool's name.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/fingerprint.hh"
#include "core/solve_cache.hh"
#include "tools/cli.hh"
#include "util/atomic_file.hh"

namespace {

using namespace cactid;
using namespace cactid::tools;

/** Every kind of table entry, bound to one struct. */
struct Args {
    bool quiet = false;
    std::string out = "-";
    std::vector<std::string> inputs;
    int jobs = -1;
    std::uint64_t instr = 0;
    std::string operand;
};

CommandLine
commandLine(Args &a, bool operand = false)
{
    return {"tool",
            "tool - a test command line\n\nusage: tool [options]\n",
            {
                {"--quiet", nullptr, "say less", &a.quiet},
                {"--out", "FILE", "where the output goes", &a.out},
                {"--input", "FILE", "an input (repeatable)", &a.inputs},
                {"--jobs", "N", "worker threads", &a.jobs},
                {"--instr", "N", "instructions per thread", &a.instr, 1},
            },
            "\nexit codes: 0 ok\n",
            operand ? &a.operand : nullptr};
}

/** One walk over @p words, capturing the walker's stdout and stderr. */
std::optional<int>
walk(Args &a, std::vector<std::string> words, std::string *out = nullptr,
     std::string *err = nullptr, bool operand = false)
{
    words.insert(words.begin(), "tool");
    std::vector<char *> argv;
    for (std::string &w : words)
        argv.push_back(w.data());
    argv.push_back(nullptr);
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const std::optional<int> rc = parseCommandLine(
        commandLine(a, operand), static_cast<int>(words.size()), argv.data());
    const std::string o = testing::internal::GetCapturedStdout();
    const std::string e = testing::internal::GetCapturedStderr();
    if (out)
        *out = o;
    if (err)
        *err = e;
    return rc;
}

TEST(CliWalker, FlagsNotGivenKeepTheirDefaults)
{
    Args a;
    std::string out, err;
    EXPECT_EQ(walk(a, {}, &out, &err), std::nullopt);
    EXPECT_FALSE(a.quiet);
    EXPECT_EQ(a.out, "-");
    EXPECT_TRUE(a.inputs.empty());
    EXPECT_EQ(a.jobs, -1);
    EXPECT_EQ(a.instr, 0u);
    EXPECT_EQ(out + err, "");
}

TEST(CliWalker, ParsesEveryKindOfEntry)
{
    Args a;
    EXPECT_EQ(walk(a, {"--quiet", "--out", "r.md", "--input", "a.json",
                       "--jobs", "0", "--input", "b.json", "--instr",
                       "18446744073709551615"}),
              std::nullopt);
    EXPECT_TRUE(a.quiet);
    EXPECT_EQ(a.out, "r.md");
    EXPECT_EQ(a.inputs, (std::vector<std::string>{"a.json", "b.json"}));
    EXPECT_EQ(a.jobs, 0);
    EXPECT_EQ(a.instr, 18446744073709551615u);
}

TEST(CliWalker, UsageErrorsAreOneLineAndExit2)
{
    const struct {
        std::vector<std::string> words;
        const char *line;
    } cases[] = {
        {{"--jobs", "-1"}, "tool: --jobs needs an integer >= 0 (got -1)\n"},
        {{"--instr", "0"}, "tool: --instr needs an integer >= 1 (got 0)\n"},
        {{"--instr", "-5"}, "tool: --instr needs an integer >= 1 (got -5)\n"},
        {{"--jobs", "4x"}, "tool: --jobs needs an integer >= 0 (got 4x)\n"},
        {{"--out"}, "tool: --out needs a value\n"},
        {{"--bogus"}, "tool: unknown flag --bogus\n"},
        {{"stray"}, "tool: unknown flag stray\n"},
        // Only the first error is printed, and the walk stops there.
        {{"--jobs", "-1", "--bogus", "--instr", "0"},
         "tool: --jobs needs an integer >= 0 (got -1)\n"},
        // An error wins over --help and --version on either side.
        {{"--help", "--bogus", "--version"}, "tool: unknown flag --bogus\n"},
    };
    for (const auto &c : cases) {
        Args a;
        std::string out, err;
        EXPECT_EQ(walk(a, c.words, &out, &err), 2) << c.line;
        EXPECT_EQ(err, c.line);
        EXPECT_EQ(out, "");
    }
}

TEST(CliWalker, OneOperandWhenTheToolTakesIt)
{
    Args a;
    EXPECT_EQ(walk(a, {"-", "--quiet"}, nullptr, nullptr, true),
              std::nullopt);
    EXPECT_EQ(a.operand, "-");
    Args b;
    std::string err;
    EXPECT_EQ(walk(b, {"a.cfg", "b.cfg"}, nullptr, &err, true), 2);
    EXPECT_EQ(err, "tool: extra argument b.cfg\n");
    Args c;
    EXPECT_EQ(walk(c, {"a.cfg", "--nope"}, nullptr, &err, true), 2);
    EXPECT_EQ(err, "tool: unknown flag --nope\n");
}

TEST(CliWalker, HelpAndVersionExit0)
{
    for (const char *h : {"--help", "-h"}) {
        Args a;
        std::string out, err;
        EXPECT_EQ(walk(a, {"--quiet", h}, &out, &err), 0);
        EXPECT_EQ(out, usage(commandLine(a)));
        EXPECT_EQ(err, "");
    }
    Args a;
    std::string out, err;
    EXPECT_EQ(walk(a, {"--version", "--help"}, &out, &err), 0);
    EXPECT_EQ(out.rfind("tool ", 0), 0u) << out;
    EXPECT_EQ(out.find("usage"), std::string::npos) << out;
    EXPECT_EQ(out.back(), '\n');
    EXPECT_EQ(err, "");
}

TEST(CliUsage, ListsEveryTableEntry)
{
    Args a;
    const CommandLine cl = commandLine(a);
    const std::string text = usage(cl);
    EXPECT_EQ(text.rfind(cl.synopsis, 0), 0u);
    EXPECT_EQ(text.substr(text.size() - std::string(cl.epilog).size()),
              cl.epilog);
    for (const Flag &f : cl.flags) {
        const std::string head = std::string("  ") + f.name +
                                 (f.value ? std::string(" ") + f.value : "");
        EXPECT_NE(text.find("\n" + head + " "), std::string::npos) << head;
        EXPECT_NE(text.find(f.help), std::string::npos) << f.help;
    }
    EXPECT_NE(text.find("  --version "), std::string::npos);
    EXPECT_NE(text.find("  -h, --help "), std::string::npos);
}

TEST(CliUsage, WrapsLongHelpIntoTheHelpColumn)
{
    bool on = false;
    const CommandLine cl = {
        "tool", "",
        {{"--a-rather-long-switch-name", nullptr,
          "one two three four five six seven eight nine ten eleven "
          "twelve thirteen fourteen fifteen sixteen",
          &on}},
        ""};
    const std::string text = usage(cl);
    const std::string indent(21, ' ');
    EXPECT_EQ(text.rfind("  --a-rather-long-switch-name\n" + indent + "one ",
                         0),
              0u)
        << text;
    std::size_t begin = 0;
    for (std::size_t end; (end = text.find('\n', begin)) != std::string::npos;
         begin = end + 1)
        EXPECT_LE(end - begin, 79u) << text.substr(begin, end - begin);
}

TEST(CliGuard, MapsExceptionsToExitCodes)
{
    testing::internal::CaptureStderr();
    EXPECT_EQ(runGuarded("tool", [] { return 1; }), 1);
    EXPECT_EQ(runGuarded("tool",
                         []() -> int {
                             throw std::invalid_argument("bad spec");
                         }),
              2);
    EXPECT_EQ(runGuarded("tool",
                         []() -> int {
                             throw InfeasibleConfig("no feasible solutions");
                         }),
              2);
    EXPECT_EQ(runGuarded("tool",
                         []() -> int { throw std::runtime_error("boom"); }),
              3);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "tool: bad spec\n"
              "tool: no feasible solutions\n"
              "tool: internal error: boom\n");
}

TEST(CliCache, FirstWarningNamesTheTool)
{
    EXPECT_EQ(openSolveCache("tool", ""), nullptr);
    const std::unique_ptr<SolveCache> cache =
        openSolveCache("tool", testing::TempDir() + "cli_cache");
    ASSERT_NE(cache, nullptr);
    testing::internal::CaptureStderr();
    // Two torn records, two rejections, one line.
    for (const int kib : {64, 128}) {
        MemoryConfig cfg;
        cfg.capacityBytes = kib << 10;
        const ConfigFingerprint fp = configFingerprint(cfg);
        ASSERT_TRUE(util::writeFileAtomic(cache->recordPath(fp), "torn"));
        SolveResult out;
        EXPECT_FALSE(cache->lookup(fp, canonicalKey(cfg), out)) << kib;
    }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(cache->counters().rejected, 2u);
    EXPECT_EQ(err.rfind("tool: rejected cache record ", 0), 0u) << err;
    EXPECT_EQ(err.find('\n'), err.size() - 1) << err;
}

} // namespace
