/**
 * @file
 * What every tool main shares: one flag table that drives argv
 * parsing, bounds and `--help`; one output sink for `--flag FILE|-`
 * options; the solve cache behind `--cache-dir`; and one mapping of
 * escaping exceptions to exit codes.
 */

#ifndef CACTID_TOOLS_CLI_HH
#define CACTID_TOOLS_CLI_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

namespace cactid {
class SolveCache;
}

namespace cactid::tools {

/**
 * One command-line flag, written once: parseCommandLine() parses it
 * and usage() lists it from the same entry.
 */
struct Flag {
    const char *name;  ///< e.g. "--jobs"
    const char *value; ///< "N", "FILE"...; nullptr for a switch
    const char *help;  ///< usage() wraps it into the help column
    /**
     * A switch sets its bool.  A text value is stored, or appended
     * when the flag is repeatable.  A number must be one whole
     * decimal integer >= min.
     */
    std::variant<bool *, std::string *, std::vector<std::string> *, int *,
                 std::uint64_t *>
        target;
    long long min = 0;
};

/** A tool's command line: its flag table and the text around it. */
struct CommandLine {
    const char *tool;     ///< error prefix and `--version` name
    const char *synopsis; ///< what `--help` prints above the flags
    std::vector<Flag> flags;
    const char *epilog; ///< ... and below them (exit codes, examples)
    /** Where the one non-flag argument ("-" included) goes; nullptr: none. */
    std::string *operand = nullptr;
};

/** The `--help` text: synopsis, one entry per flag, epilog. */
std::string usage(const CommandLine &cl);

/**
 * Walk @p argv against @p cl's table.  The walker also owns
 * `--help`/`-h` (usage on stdout), `--version` (obs::versionLine) and
 * the first usage error: one `<tool>: <problem>` line on stderr, later
 * errors unprinted.  A flag not given keeps its target's value.
 *
 * @return nothing when the tool should run; otherwise main's exit
 *         code: 0 after `--version` or `--help`, 2 after an error
 */
std::optional<int> parseCommandLine(const CommandLine &cl, int argc,
                                    char **argv);

/**
 * Render through @p fn to stdout when @p path is "-", else atomically
 * to @p path (tmp + fsync + rename, so a crash or a full disk never
 * leaves a torn file).  A failed write prints `<tool>: <reason>` and
 * returns false.
 */
bool withStream(const char *tool, const std::string &path,
                const std::function<void(std::ostream &)> &fn);

/**
 * The solve cache behind `--cache-dir @p dir`, or nullptr when @p dir
 * is empty.  Its first warning of the process (a rejected record, a
 * failed write) prints as `<tool>: <warning>`.
 *
 * @throws std::invalid_argument (one line) when @p dir is no usable
 *         directory
 */
std::unique_ptr<SolveCache> openSolveCache(const char *tool,
                                           const std::string &dir);

/**
 * Run a tool's @p body and return its exit code, or 2 when a
 * std::invalid_argument or an InfeasibleConfig escapes (a bad config,
 * flag combination or spec, printed as `<tool>: <what>`), or 3 for any
 * other exception (`<tool>: internal error: <what>`).
 */
int runGuarded(const char *tool, const std::function<int()> &body);

} // namespace cactid::tools

#endif // CACTID_TOOLS_CLI_HH
