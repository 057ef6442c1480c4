/**
 * @file
 * Canonical config fingerprint: the cache key of a solve.
 *
 * Two MemoryConfigs produce the same fingerprint exactly when every
 * solve-relevant field is equal — the fields that determine the bytes
 * of SolveResult::best / filtered.  Execution knobs (worker count,
 * export paths, request ids) are deliberately outside the key: a
 * request solved with `--jobs 8` must hit the entry a `--jobs 1`
 * solve stored.
 *
 * The key is built in two steps so it is auditable: canonicalKey()
 * renders every solve-relevant field into a stable `field=value` text
 * line (doubles through the locale-proof round-trip fmtDouble), and
 * the 128-bit fingerprint is two independently seeded FNV-1a passes
 * over those bytes.  The text form is embedded in on-disk cache
 * records, so a collision or a scope bug is diagnosable from the
 * record alone.
 *
 * Scope rule for new MemoryConfig fields: if a field can change any
 * byte of best/filtered, it MUST be added to canonicalKey() (the
 * fingerprint unit tests enumerate the struct exhaustively and fail
 * on unhashed solve-relevant fields).
 */

#ifndef CACTID_CORE_FINGERPRINT_HH
#define CACTID_CORE_FINGERPRINT_HH

#include <cstdint>
#include <string>

#include "core/config.hh"

namespace cactid {

/** 128-bit config fingerprint (two independent 64-bit FNV-1a lanes). */
struct ConfigFingerprint {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    friend bool
    operator==(const ConfigFingerprint &a, const ConfigFingerprint &b)
    {
        return a.lo == b.lo && a.hi == b.hi;
    }
    friend bool
    operator!=(const ConfigFingerprint &a, const ConfigFingerprint &b)
    {
        return !(a == b);
    }

    /** 32 lower-case hex digits (record file names, diagnostics). */
    std::string hex() const;
};

/**
 * The canonical solve-relevant byte string of @p cfg
 * ("cactid-config-v1|type=cache|size=…").  Every solve-relevant field
 * appears, in a fixed order, with round-trip-exact double rendering.
 */
std::string canonicalKey(const MemoryConfig &cfg);

/**
 * Fingerprint of an already-rendered canonical key string — the
 * primitive configFingerprint() is built on.  Exposed so cache-record
 * validation can re-derive the fingerprint from the key embedded in a
 * record and detect alien or relocated files.
 */
ConfigFingerprint keyFingerprint(const std::string &key);

/** Fingerprint of the full canonical key. */
ConfigFingerprint configFingerprint(const MemoryConfig &cfg);

/**
 * The canonical key with the objective weights zeroed out: requests
 * sharing this key differ at most in OptimizationWeights, so they
 * share partition enumeration, bank evaluation and both constraint
 * filters — only the final objective pass is per-request.  solveBatch
 * groups by this key.
 */
std::string canonicalShareKey(const MemoryConfig &cfg);

} // namespace cactid

#endif // CACTID_CORE_FINGERPRINT_HH
