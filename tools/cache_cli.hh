/**
 * @file
 * The shared --cache / --cache-dir CLI contract.
 *
 * Every solving tool (cactid, cactid-study, cactid-serve) takes the
 * same pair of flags:
 *
 *   --cache on|off   memoize solves in a process-global SolveCache
 *                    (default: off, unless --cache-dir is given)
 *   --cache-dir DIR  also persist cache records under DIR, shared
 *                    across processes and runs (implies --cache on;
 *                    records are stamped with the build fingerprint,
 *                    so a rebuilt model silently re-solves instead of
 *                    serving stale entries)
 *
 * installSolveCache wires the flags into the process-global cache the
 * engine's run(cfg)/solveBatch consult, so every solve in the process
 * — including the eight LLC-study solves — is memoized without
 * threading a pointer through every call site.
 */

#ifndef CACTID_TOOLS_CACHE_CLI_HH
#define CACTID_TOOLS_CACHE_CLI_HH

#include <string>

namespace cactid {
class SolveCache;
}

namespace cactid::tools {

/**
 * Install (or leave uninstalled) the process-global solve cache.
 *
 * @param mode "" (on iff @p dir non-empty), "on", or "off"
 * @param dir  on-disk record directory ("" = in-memory only)
 * @throws std::invalid_argument (one line) on an invalid mode or "off"
 *         combined with a dir, a usage error to the tools
 */
void installSolveCache(const std::string &mode, const std::string &dir);

/** The cache installed by installSolveCache (nullptr when off). */
SolveCache *installedSolveCache();

} // namespace cactid::tools

#endif // CACTID_TOOLS_CACHE_CLI_HH
