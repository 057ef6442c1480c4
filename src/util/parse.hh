/**
 * @file
 * Strict number parsing for text from outside the program: record
 * fields, command-line flag values and fault-plan specs.
 */

#ifndef CACTID_UTIL_PARSE_HH
#define CACTID_UTIL_PARSE_HH

#include <charconv>
#include <string_view>

namespace cactid::util {

/**
 * @p text as one whole number of @p out's type (decimal for integers;
 * locale-independent).  False on anything else: empty, a leading
 * space or '+', trailing characters, a sign on an unsigned type, or a
 * value out of range.
 */
template <class T>
bool
parseNumber(std::string_view text, T &out)
{
    const char *end = text.data() + text.size();
    const auto [p, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && p == end;
}

} // namespace cactid::util

#endif // CACTID_UTIL_PARSE_HH
