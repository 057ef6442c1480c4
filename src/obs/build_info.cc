/**
 * @file
 * Build-info implementation over the CMake-generated stamp.
 */

#include "obs/build_info.hh"

#include "obs/numfmt.hh"
#include "obs/trace.hh" // for CACTID_OBS_TRACING
#include "util/hash.hh"

#if __has_include("obs/build_info.gen.hh")
#include "obs/build_info.gen.hh"
#else
// Non-CMake builds (e.g. single-file syntax checks) get a null stamp.
#define CACTID_BUILD_GIT_DESCRIBE "unknown"
#define CACTID_BUILD_COMPILER "unknown"
#define CACTID_BUILD_FLAGS ""
#define CACTID_BUILD_TYPE "unknown"
#endif

namespace cactid::obs {

const BuildInfo &
buildInfo()
{
    static const BuildInfo info{
        CACTID_BUILD_GIT_DESCRIBE,
        CACTID_BUILD_COMPILER,
        CACTID_BUILD_FLAGS,
        CACTID_BUILD_TYPE,
        CACTID_OBS_TRACING != 0,
    };
    return info;
}

std::string
buildStamp()
{
    const BuildInfo &b = buildInfo();
    std::string s = "cactid-build|" + b.gitDescribe + "|" +
                    b.compiler + "|" + b.flags + "|" + b.buildType +
                    "|" + (b.tracingCompiled ? "trace" : "notrace");
    return util::hex16(util::fnv1a64(s));
}

std::string
versionLine(const std::string &tool)
{
    const BuildInfo &b = buildInfo();
    return tool + " " + b.gitDescribe + " (" + b.buildType + ", " +
           b.compiler + ", tracing " +
           (b.tracingCompiled ? "on" : "off") + ")";
}

void
writeBuildInfoJson(std::ostream &os)
{
    const BuildInfo &b = buildInfo();
    os << "{\"git\": \"" << jsonEscape(b.gitDescribe)
       << "\", \"compiler\": \"" << jsonEscape(b.compiler)
       << "\", \"flags\": \"" << jsonEscape(b.flags)
       << "\", \"build_type\": \"" << jsonEscape(b.buildType)
       << "\", \"tracing\": "
       << (b.tracingCompiled ? "true" : "false") << "}";
}

} // namespace cactid::obs
