/**
 * @file
 * Tests for the checksummed text record codec (util/record.hh): every
 * value kind round-trips exactly, the crc trailer is checked before
 * the header, tokens parse strictly, list counts are bounded by the
 * lines left, and every rejection carries a one-line reason.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/hash.hh"
#include "util/record.hh"

namespace {

using namespace cactid::util;

/** @p body (header and lines, newline-terminated) plus its trailer. */
std::string
sealed(const std::string &body)
{
    return body + "crc " + hex16(fnv1a64(body)) + "\n";
}

/** The rejection reason of reading one int from the `n` line. */
std::string
intReason(const std::string &bytes)
{
    RecordReader rd(bytes, "test-v1");
    int v = 0;
    rd.line("n")(v);
    rd.finish();
    return rd.error();
}

bool
contains(const std::string &s, const std::string &part)
{
    return s.find(part) != std::string::npos;
}

TEST(RecordCodec, EveryValueKindRoundTrips)
{
    const double tiny = std::numeric_limits<double>::denorm_min();
    const std::string text =
        "quote \" backslash \\ nl \n cr \r tab \t ctl \x01 del \x7f é";
    const std::vector<int> xs = {3, -1, 2};

    RecordWriter w("test-v1");
    w.line("n")(std::numeric_limits<std::uint64_t>::max())(-5)(
        std::numeric_limits<std::int64_t>::min())(true)(false);
    w.line("d")(0.1)(-1e-300)(tiny)(1.0 / 3.0);
    w.text("t", text);
    w.text("empty", "");
    w.list("xs", "x", xs, [](auto &io, const int &x) { io(x); });
    const std::string bytes = w.finish();

    RecordReader rd(bytes, "test-v1");
    std::uint64_t u = 0;
    int i = 0;
    std::int64_t i64 = 0;
    bool t = false, f = true;
    double a = 0, b = 0, c = 0, d = 0;
    std::string got_text, got_empty = "x";
    std::vector<int> got_xs;
    rd.line("n")(u)(i)(i64)(t)(f);
    rd.line("d")(a)(b)(c)(d);
    rd.text("t", got_text);
    rd.text("empty", got_empty);
    rd.list("xs", "x", got_xs, [](auto &io, int &x) { io(x); });
    ASSERT_TRUE(rd.finish()) << rd.error();

    EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(i, -5);
    EXPECT_EQ(i64, std::numeric_limits<std::int64_t>::min());
    EXPECT_TRUE(t);
    EXPECT_FALSE(f);
    EXPECT_EQ(a, 0.1);
    EXPECT_EQ(b, -1e-300);
    EXPECT_EQ(c, tiny);
    EXPECT_EQ(d, 1.0 / 3.0);
    EXPECT_EQ(got_text, text);
    EXPECT_EQ(got_empty, "");
    EXPECT_EQ(got_xs, xs);
}

TEST(RecordCodec, LayoutIsHeaderLinesThenTrailer)
{
    RecordWriter w("test-v1");
    w.line("n")(7)(2.5);
    w.text("t", "a \"b\"");
    EXPECT_EQ(w.finish(), sealed("test-v1\nn 7 2.5\nt a \\\"b\\\"\n"));
}

TEST(RecordCodec, TrailerIsCheckedBeforeHeader)
{
    const std::string good = sealed("test-v1\nn 1\n");
    EXPECT_EQ(intReason(good), "");

    // Any defect in the framing wins over the (also wrong) header.
    const std::string alien = sealed("other-v1\nn 1\n");
    EXPECT_EQ(RecordReader(alien, "test-v1").error(),
              "unrecognized version header");
    std::string flipped = alien;
    flipped[2] ^= 0x01;
    EXPECT_TRUE(contains(RecordReader(flipped, "test-v1").error(),
                         "crc mismatch"));
    for (const std::string &torn :
         {std::string(), good.substr(0, good.size() - 1),
          good.substr(0, good.size() / 2), good + "\n",
          good + "trailing\n"}) {
        EXPECT_TRUE(
            contains(RecordReader(torn, "test-v1").error(), "torn"))
            << torn;
    }
    std::string upper = good;
    const std::size_t hex = upper.size() - 17;
    for (std::size_t k = hex; k < hex + 16; ++k)
        upper[k] = static_cast<char>(std::toupper(upper[k]));
    if (upper != good) {
        EXPECT_EQ(RecordReader(upper, "test-v1").error(),
                  "malformed crc trailer (torn record)");
    }
    // A trailer that is not on a line of its own is torn too.
    const std::string glued =
        "test-v1\nn 1" + std::string("crc ") +
        hex16(fnv1a64("test-v1\nn 1")) + "\n";
    EXPECT_TRUE(contains(RecordReader(glued, "test-v1").error(), "torn"));
}

TEST(RecordCodec, TokensParseStrictly)
{
    for (const char *bad : {"1x", "+1", "1.5", "0x10", "3000000000",
                            "-", "1e3"}) {
        EXPECT_TRUE(contains(intReason(sealed(std::string("test-v1\nn ") +
                                              bad + "\n")),
                             "malformed value"))
            << bad;
    }
    EXPECT_TRUE(contains(intReason(sealed("test-v1\nn  1\n")),
                         "empty value"));
    EXPECT_TRUE(
        contains(intReason(sealed("test-v1\nn\n")), "missing value"));

    const std::string neg = sealed("test-v1\nn -1\n");
    RecordReader rd(neg, "test-v1");
    std::uint64_t u = 0;
    rd.line("n")(u);
    EXPECT_TRUE(contains(rd.error(), "malformed value '-1'"));

    const std::string two = sealed("test-v1\nb 2\n");
    RecordReader rb(two, "test-v1");
    bool flag = false;
    rb.line("b")(flag);
    EXPECT_FALSE(rb.ok());

    const std::string word = sealed("test-v1\nd 1.5abc\n");
    RecordReader rdd(word, "test-v1");
    double dv = 0;
    rdd.line("d")(dv);
    EXPECT_TRUE(contains(rdd.error(), "line 2 (d): malformed value"));
}

TEST(RecordCodec, LinesMustMatchInFull)
{
    EXPECT_TRUE(contains(intReason(sealed("test-v1\nnn 1\n")),
                         "expected a n line"));
    EXPECT_TRUE(contains(intReason(sealed("test-v1\nn 1 2\n")),
                         "unexpected trailing values"));
    EXPECT_TRUE(contains(intReason(sealed("test-v1\nn 1\nextra\n")),
                         "line 3: unexpected extra line"));
    EXPECT_TRUE(contains(intReason(sealed("test-v1\n")),
                         "truncated record: no n line"));
}

TEST(RecordCodec, ListCountsAreBoundedByLinesLeft)
{
    const auto read = [](const std::string &bytes) {
        RecordReader rd(bytes, "test-v1");
        std::vector<int> xs;
        rd.list("xs", "x", xs, [](auto &io, int &x) { io(x); });
        rd.finish();
        return std::make_pair(rd.error(), xs.size());
    };
    EXPECT_EQ(read(sealed("test-v1\nxs 2\nx 1\nx 2\n")).first, "");

    // A huge count must be refused before anything is allocated.
    const auto [huge, n_huge] =
        read(sealed("test-v1\nxs 1152921504606846976\nx 1\n"));
    EXPECT_TRUE(contains(huge, "count 1152921504606846976 exceeds the "
                               "1 lines left"))
        << huge;
    EXPECT_EQ(n_huge, 0u);
    EXPECT_TRUE(contains(read(sealed("test-v1\nxs 3\nx 1\nx 2\n")).first,
                         "exceeds"));
    EXPECT_TRUE(contains(read(sealed("test-v1\nxs 1\ny 1\n")).first,
                         "expected a x line"));
}

TEST(RecordCodec, TextEscapesAreStrict)
{
    const auto reason = [](const std::string &line) {
        const std::string bytes = sealed("test-v1\nt " + line + "\n");
        RecordReader rd(bytes, "test-v1");
        std::string out;
        rd.text("t", out);
        rd.finish();
        return rd.error();
    };
    EXPECT_EQ(reason("plain \\\" \\\\ \\n \\u001f"), "");
    for (const char *bad :
         {"end\\", "\\q", "\\u00", "\\u0041", "\\u00zz", "raw\ttab"})
        EXPECT_TRUE(contains(reason(bad), "malformed text")) << bad;
    EXPECT_TRUE(contains(intReason(sealed("test-v1\nt\n")), "expected"));
}

TEST(RecordCodec, FirstRejectionSticks)
{
    const std::string bytes = sealed("test-v1\nn x\nm 1\n");
    RecordReader rd(bytes, "test-v1");
    int a = 0, b = 0;
    rd.line("n")(a);
    rd.line("wrong")(b);
    EXPECT_FALSE(rd.finish());
    EXPECT_EQ(rd.error(), "line 2 (n): malformed value 'x'");
}

} // namespace
