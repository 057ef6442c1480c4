/**
 * @file
 * Checksummed text records: the one on-disk framing of the sweep
 * checkpoint store (sim/resilience.hh) and the solve-cache disk store
 * (core/solve_cache.hh).  DESIGN.md "Checksummed records" has the
 * rules.
 *
 * A record is a version header line, `key value...` lines and a
 * `crc <16 hex>` trailer, the FNV-1a of every byte before it.  Values
 * are single-space separated: integers in decimal, doubles as
 * round-trip "%.17g", bools as 0/1.  A text value is the JSON-escaped
 * rest of its line; a list is a `key N` line and N element lines.
 *
 * A store lists each struct's fields once, in a template over the
 * writer or the reader, e.g. `io(t.a)(t.b)`: with a RecordWriter it
 * encodes, with a RecordReader it decodes.  The reader's first
 * rejection sticks, with a one-line reason, so a decoder reads every
 * field unconditionally and tests ok() once at the end.
 */

#ifndef CACTID_UTIL_RECORD_HH
#define CACTID_UTIL_RECORD_HH

#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/numfmt.hh"
#include "util/parse.hh"

namespace cactid::util {

/** Builds one record. */
class RecordWriter
{
  public:
    explicit RecordWriter(std::string_view header) : out_(header) {}

    /** Start the `key` line; its values follow through operator(). */
    RecordWriter &
    line(std::string_view key)
    {
        out_ += '\n';
        out_ += key;
        return *this;
    }

    template <class T>
    RecordWriter &
    operator()(const T &v)
    {
        out_ += ' ';
        if constexpr (std::is_same_v<T, bool>)
            out_ += v ? '1' : '0';
        else if constexpr (std::is_floating_point_v<T>)
            out_ += obs::fmtDouble(v);
        else
            out_ += std::to_string(v);
        return *this;
    }

    void text(std::string_view key, std::string_view s);

    /** A `key N` line, then fields(*this, item) on an `elem` line each. */
    template <class T, class F>
    void
    list(std::string_view key, std::string_view elem,
         const std::vector<T> &items, F fields)
    {
        line(key)(items.size());
        for (const T &item : items)
            fields(line(elem), item);
    }

    /** The record, crc trailer appended. */
    std::string finish();

  private:
    std::string out_;
};

/** Parses one record; keeps views into @p bytes, which must outlive it. */
class RecordReader
{
  public:
    /** Checks the crc trailer first, then the @p header line. */
    RecordReader(std::string_view bytes, std::string_view header);

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }

    /** Enter the next line, which must be the `key` line. */
    RecordReader &line(std::string_view key);

    /** The current line's next value, parsed whole and strictly. */
    template <class T>
    RecordReader &
    operator()(T &v)
    {
        std::string_view tok;
        if (!token(tok))
            return *this;
        bool good;
        if constexpr (std::is_same_v<T, bool>) {
            good = tok == "0" || tok == "1";
            v = tok == "1";
        } else {
            good = parseNumber(tok, v);
        }
        if (!good)
            fail(where() + "malformed value '" +
                 std::string(tok.substr(0, 32)) + "'");
        return *this;
    }

    void text(std::string_view key, std::string &out);

    /** A `key N` line (N at most the lines left), then N items. */
    template <class T, class F>
    void
    list(std::string_view key, std::string_view elem,
         std::vector<T> &items, F fields)
    {
        items.assign(count(key), T{});
        for (T &item : items)
            fields(line(elem), item);
    }

    /** Reject unless every line was read in full; then ok(). */
    bool finish();

  private:
    /** Reject with @p reason, unless already rejected. */
    void fail(const std::string &reason);
    bool token(std::string_view &tok);
    std::size_t count(std::string_view key);
    std::string where() const;

    std::vector<std::string_view> lines_; ///< header first
    std::size_t next_ = 0;  ///< lines entered so far
    std::string_view key_;  ///< the current line's key
    std::string_view rest_; ///< and its unread values
    std::string error_;
};

} // namespace cactid::util

#endif // CACTID_UTIL_RECORD_HH
