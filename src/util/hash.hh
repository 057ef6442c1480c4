/**
 * @file
 * Shared non-cryptographic hashing.
 *
 * FNV-1a is the repo's fingerprint primitive: record checksums
 * (util/record.hh), checkpoint record keys (sim/resilience.hh) and
 * the canonical config fingerprint (core/fingerprint.hh) all reduce a
 * canonical byte string through it.  It lives in util so the core
 * library can fingerprint configs without depending on the simulator.
 */

#ifndef CACTID_UTIL_HASH_HH
#define CACTID_UTIL_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace cactid::util {

/** FNV-1a 64-bit over @p data, continuing from @p seed. */
constexpr std::uint64_t
fnv1a64(std::string_view data, std::uint64_t seed = 0xcbf29ce484222325ULL)
{
    std::uint64_t h = seed;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** @p v as 16 lower-case hex digits (stable record-key rendering). */
inline std::string
hex16(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i, v >>= 4)
        out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    return out;
}

} // namespace cactid::util

#endif // CACTID_UTIL_HASH_HH
