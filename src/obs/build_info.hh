/**
 * @file
 * Build attribution: which exact build produced an artifact.
 *
 * Every machine-readable export (study JSON, obs registry dump, Chrome
 * trace) carries a "build" header and every flag-taking tool answers
 * `--version`, so a trace or study dump on disk can always be traced
 * back to a git revision, compiler and flag set.
 */

#ifndef CACTID_OBS_BUILD_INFO_HH
#define CACTID_OBS_BUILD_INFO_HH

#include <ostream>
#include <string>

namespace cactid::obs {

/** Configure-time build description (all values are stable strings). */
struct BuildInfo {
    std::string gitDescribe; ///< `git describe --always --dirty`
    std::string compiler;    ///< id + version, e.g. "GNU 12.2.0"
    std::string flags;       ///< CXX flags incl. build-type flags
    std::string buildType;   ///< CMake build type
    bool tracingCompiled;    ///< CACTID_OBS_TRACING was on
};

/** The stamp baked into this binary. */
const BuildInfo &buildInfo();

/**
 * A 16-hex-digit hash of buildInfo() (git describe, compiler, flags,
 * build type, tracing): binaries configured at another commit or
 * built another way disagree.  Solve-cache and checkpoint records
 * carry it and are refused by a binary whose stamp differs.
 */
std::string buildStamp();

/** One-line `--version` output for @p tool. */
std::string versionLine(const std::string &tool);

/** The stamp as a JSON object (no trailing newline). */
void writeBuildInfoJson(std::ostream &os);

} // namespace cactid::obs

#endif // CACTID_OBS_BUILD_INFO_HH
