/**
 * @file
 * Tests for multi-port memory support and the CLI config parser.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "core/cacti.hh"
#include "tools/config_parser.hh"

namespace {

using namespace cactid;

// --- Multi-port memories ------------------------------------------------

TEST(Ports, CellGrowsPerPort)
{
    const Technology t(32.0);
    const CellParams one = t.cell(RamCellTech::Sram);
    const double pitch = t.wire(WirePlane::Local).pitch;
    const CellParams two = applyPorts(one, pitch, 2);
    EXPECT_NEAR(two.width - one.width, 2.0 * pitch, 1e-15);
    EXPECT_NEAR(two.height - one.height, pitch, 1e-15);
    EXPECT_GT(two.iCellLeak300, one.iCellLeak300);
}

TEST(Ports, SinglePortUnchanged)
{
    const Technology t(32.0);
    const CellParams one = t.cell(RamCellTech::Sram);
    const CellParams same =
        applyPorts(one, t.wire(WirePlane::Local).pitch, 1);
    EXPECT_DOUBLE_EQ(same.width, one.width);
    EXPECT_DOUBLE_EQ(same.height, one.height);
}

TEST(Ports, DramCellsCannotBeMultiPorted)
{
    const Technology t(32.0);
    EXPECT_THROW(
        applyPorts(t.cell(RamCellTech::CommDram), 100e-9, 2),
        std::invalid_argument);
}

TEST(Ports, DualPortCacheCostsAreaAndLeakage)
{
    MemoryConfig c;
    c.capacityBytes = 1 << 20;
    c.blockBytes = 64;
    c.associativity = 8;
    c.type = MemoryType::Cache;
    c.featureNm = 32.0;
    const Solution one = solve(c).best;
    c.ports = 2;
    const Solution two = solve(c).best;
    EXPECT_GT(two.totalArea, 1.2 * one.totalArea);
    EXPECT_GT(two.leakage, one.leakage);
}

TEST(Ports, ConfigRejectsMultiPortDram)
{
    MemoryConfig c;
    c.capacityBytes = 1 << 20;
    c.type = MemoryType::Cache;
    c.dataCellTech = RamCellTech::LpDram;
    c.ports = 2;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

// --- CLI config parser ----------------------------------------------------

TEST(ConfigParser, ParsesCapacitySuffixes)
{
    using tools::parseCapacity;
    EXPECT_DOUBLE_EQ(parseCapacity("1024"), 1024.0);
    EXPECT_DOUBLE_EQ(parseCapacity("32K"), 32.0 * 1024);
    EXPECT_DOUBLE_EQ(parseCapacity("24M"), 24.0 * 1024 * 1024);
    EXPECT_DOUBLE_EQ(parseCapacity("2g"), 2.0 * 1024 * 1024 * 1024);
    EXPECT_THROW(parseCapacity("abc"), std::exception);
    EXPECT_THROW(parseCapacity(""), std::invalid_argument);
}

TEST(ConfigParser, FullConfigRoundTrip)
{
    std::istringstream in(R"(
# a comment
size = 24M
block = 64
associativity = 12
banks = 8
type = cache
access_mode = sequential
technology = comm-dram
tag_technology = comm-dram
feature_nm = 32
sleep_tx = false
ecc = true
max_area = 0.15
max_acctime = 2.0
weight_area = 2
)");
    const MemoryConfig c = tools::parseConfig(in);
    EXPECT_DOUBLE_EQ(c.capacityBytes, 24.0 * 1024 * 1024);
    EXPECT_EQ(c.blockBytes, 64);
    EXPECT_EQ(c.associativity, 12);
    EXPECT_EQ(c.nBanks, 8);
    EXPECT_EQ(c.type, MemoryType::Cache);
    EXPECT_EQ(c.accessMode, AccessMode::Sequential);
    EXPECT_EQ(c.dataCellTech, RamCellTech::CommDram);
    EXPECT_EQ(c.tagCellTech, RamCellTech::CommDram);
    EXPECT_TRUE(c.includeEcc);
    EXPECT_FALSE(c.sleepTransistors);
    EXPECT_DOUBLE_EQ(c.maxAreaConstraint, 0.15);
    EXPECT_DOUBLE_EQ(c.weights.area, 2.0);
    c.validate(); // parsed config must be solvable input
}

TEST(ConfigParser, MainMemoryKeys)
{
    std::istringstream in(R"(
size = 128M
block = 8
type = main_memory
technology = dram
feature_nm = 78
io_bits = 8
burst_length = 8
prefetch_width = 8
page_bytes = 1024
)");
    const MemoryConfig c = tools::parseConfig(in);
    EXPECT_EQ(c.type, MemoryType::MainMemoryChip);
    EXPECT_EQ(c.ioBits, 8);
    EXPECT_EQ(c.pageBytes, 1024);
    c.validate();
}

/** The error parseConfig gives @p text, or "" when it parses. */
std::string
configError(const std::string &text)
{
    std::istringstream in(text);
    try {
        tools::parseConfig(in);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(ConfigParser, SolverOptionKeys)
{
    // A config describes the memory only: how a solve runs is set on
    // the command line, so neither retired engine key is a key.
    EXPECT_EQ(configError("size = 1M\njobs = 4\n"),
              "line 2: unknown key 'jobs'");
    EXPECT_EQ(configError("size = 1M\ncollect_all = true\n"),
              "line 2: unknown key 'collect_all'");
}

TEST(ConfigParser, SolverOptionKeysAcceptedWithoutOptionsOut)
{
    // Whatever its value or case, jobs is no key.
    EXPECT_EQ(configError("jobs = 8\n"), "line 1: unknown key 'jobs'");
    EXPECT_EQ(configError("JOBS = 0\n"), "line 1: unknown key 'jobs'");
}

TEST(ConfigParser, RejectsUnknownKey)
{
    std::istringstream in("bogus = 1\n");
    EXPECT_THROW(tools::parseConfig(in), std::invalid_argument);
}

TEST(ConfigParser, RejectsMissingEquals)
{
    std::istringstream in("size 24M\n");
    EXPECT_THROW(tools::parseConfig(in), std::invalid_argument);
}

TEST(ConfigParser, RejectsBadEnum)
{
    std::istringstream in("technology = flash\n");
    EXPECT_THROW(tools::parseConfig(in), std::invalid_argument);
    std::istringstream in2("type = register\n");
    EXPECT_THROW(tools::parseConfig(in2), std::invalid_argument);
    std::istringstream in3("sleep_tx = maybe\n");
    EXPECT_THROW(tools::parseConfig(in3), std::invalid_argument);
}

TEST(ConfigParser, NumbersMustBeWholeValues)
{
    // A malformed number names its line and key.  None is cut short
    // (4x as 4, 64.9 as 64), escapes as a bare stoi/stod error, or
    // reaches the solver as nan or inf.
    const struct {
        const char *text;
        const char *error;
    } cases[] = {
        {"size = 1M\nassociativity = 4x\n",
         "line 2: associativity needs an integer (got 4x)"},
        {"block = 64.9\n", "line 1: block needs an integer (got 64.9)"},
        {"associativity = 99999999999\n",
         "line 1: associativity needs an integer (got 99999999999)"},
        {"associativity = abc\n",
         "line 1: associativity needs an integer (got abc)"},
        {"max_area = 1e999\n",
         "line 1: max_area needs a finite number (got 1e999)"},
        {"feature_nm = 32nm\n",
         "line 1: feature_nm needs a finite number (got 32nm)"},
        {"weight_area = nan\n",
         "line 1: weight_area needs a finite number (got nan)"},
        {"max_acctime = inf\n",
         "line 1: max_acctime needs a finite number (got inf)"},
        {"size = 24MB\n",
         "line 1: size needs a capacity such as 24M (got 24MB)"},
        {"size = 1e308K\n",
         "line 1: size needs a capacity such as 24M (got 1e308K)"},
    };
    for (const auto &c : cases) {
        std::istringstream in(c.text);
        try {
            tools::parseConfig(in);
            ADD_FAILURE() << "accepted: " << c.text;
        } catch (const std::invalid_argument &e) {
            EXPECT_STREQ(e.what(), c.error);
        }
    }
}

TEST(ConfigParser, EngineJobsMustBeNonNegative)
{
    // A negative worker count fails on its key, before its value is
    // read.
    EXPECT_EQ(configError("size = 1M\njobs = -3\n"),
              "line 2: unknown key 'jobs'");
}

TEST(ConfigParser, CommentsAndBlanksIgnored)
{
    std::istringstream in(R"(

# just comments
size = 1M   # trailing comment

)");
    const MemoryConfig c = tools::parseConfig(in);
    EXPECT_DOUBLE_EQ(c.capacityBytes, 1024.0 * 1024.0);
}

} // namespace
