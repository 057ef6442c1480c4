/**
 * @file
 * Checksummed text record writer and reader.
 */

#include "util/record.hh"

#include "util/hash.hh"

namespace cactid::util {

namespace {

/**
 * Undo obs::jsonEscape (\" \\ \n \r \t, \u00XX for other control
 * characters).  A raw control character or any other escape fails.
 */
bool
unescape(std::string_view s, std::string &out)
{
    constexpr std::string_view kFrom = "\"\\nrt", kTo = "\"\\\n\r\t";
    out.clear();
    for (std::size_t i = 0; i < s.size(); ++i) {
        unsigned c = static_cast<unsigned char>(s[i]);
        if (c < 0x20)
            return false;
        if (c == '\\') {
            if (++i == s.size())
                return false;
            const std::size_t k = kFrom.find(s[i]);
            const char *hex = s.data() + i + 1;
            if (k != std::string_view::npos)
                c = static_cast<unsigned char>(kTo[k]);
            else if (s[i] != 'u' || s.size() - i < 5 ||
                     std::from_chars(hex, hex + 4, c, 16).ptr !=
                         hex + 4 ||
                     c >= 0x20)
                return false;
            else
                i += 4;
        }
        out += static_cast<char>(c);
    }
    return true;
}

} // namespace

void
RecordWriter::text(std::string_view key, std::string_view s)
{
    line(key);
    out_ += ' ';
    out_ += obs::jsonEscape(s);
}

std::string
RecordWriter::finish()
{
    out_ += '\n';
    out_ += "crc " + hex16(fnv1a64(out_)) + "\n";
    return std::move(out_);
}

RecordReader::RecordReader(std::string_view bytes,
                           std::string_view header)
{
    // Integrity first: the last line must be exactly `crc <16 hex>`
    // over every byte before it, so a torn write (lost tail, stripped
    // newline, appended bytes) or a flipped byte fails before any
    // field is looked at.
    const std::size_t at = bytes.size() < 21 ? 0 : bytes.size() - 21;
    const std::string_view tail = bytes.substr(at);
    if (tail.size() != 21 || tail.substr(0, 4) != "crc " ||
        tail.back() != '\n' || (at > 0 && bytes[at - 1] != '\n'))
        fail("missing crc trailer (torn record)");
    else if (tail.find_first_not_of("0123456789abcdef", 4) != 20)
        fail("malformed crc trailer (torn record)");
    else if (tail.substr(4, 16) != hex16(fnv1a64(bytes.substr(0, at))))
        fail("crc mismatch (corrupt record)");
    for (std::size_t pos = 0; ok() && pos < at;) {
        const std::size_t nl = bytes.find('\n', pos);
        lines_.push_back(bytes.substr(pos, nl - pos));
        pos = nl + 1;
    }
    if (ok() && (lines_.empty() || lines_[0] != header))
        fail("unrecognized version header");
    next_ = 1;
}

void
RecordReader::fail(const std::string &reason)
{
    if (ok())
        error_ = reason;
}

std::string
RecordReader::where() const
{
    return "line " + std::to_string(next_) + " (" + std::string(key_) +
           "): ";
}

RecordReader &
RecordReader::line(std::string_view key)
{
    if (ok() && !rest_.empty())
        fail(where() + "unexpected trailing values");
    if (!ok())
        return *this;
    key_ = key;
    if (next_ >= lines_.size()) {
        fail("truncated record: no " + std::string(key) + " line");
        return *this;
    }
    const std::string_view l = lines_[next_++];
    if (l.substr(0, key.size()) != key ||
        (l.size() > key.size() && l[key.size()] != ' '))
        fail(where() + "expected a " + std::string(key) + " line");
    else
        rest_ = l.substr(key.size());
    return *this;
}

bool
RecordReader::token(std::string_view &tok)
{
    if (ok() && rest_.empty())
        fail(where() + "missing value");
    if (!ok())
        return false;
    rest_.remove_prefix(1); // the separating space
    tok = rest_.substr(0, rest_.find(' '));
    rest_.remove_prefix(tok.size());
    if (tok.empty())
        fail(where() + "empty value");
    return ok();
}

std::size_t
RecordReader::count(std::string_view key)
{
    std::size_t n = 0;
    line(key)(n);
    // Each item is one line, so a count above the lines left is a
    // lie; refusing it bounds the allocation by the record's size.
    if (ok() && n > lines_.size() - next_)
        fail(where() + "count " + std::to_string(n) + " exceeds the " +
             std::to_string(lines_.size() - next_) + " lines left");
    return ok() ? n : 0;
}

void
RecordReader::text(std::string_view key, std::string &out)
{
    if (line(key).ok() && rest_.empty())
        fail(where() + "missing value");
    if (ok() && !unescape(rest_.substr(1), out))
        fail(where() + "malformed text");
    rest_ = {};
}

bool
RecordReader::finish()
{
    if (ok() && !rest_.empty())
        fail(where() + "unexpected trailing values");
    if (ok() && next_ != lines_.size())
        fail("line " + std::to_string(next_ + 1) +
             ": unexpected extra line");
    return ok();
}

} // namespace cactid::util
