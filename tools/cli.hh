/**
 * @file
 * What every tool main shares: one argv walker with checked flag
 * values, one output sink for `--flag FILE|-` options and one mapping
 * of escaping exceptions to exit codes.
 */

#ifndef CACTID_TOOLS_CLI_HH
#define CACTID_TOOLS_CLI_HH

#include <cstring>
#include <functional>
#include <ostream>
#include <string>

#include "util/parse.hh"

namespace cactid::tools {

/**
 * Walks a tool's argv.  The first usage error prints one
 * `<tool>: <problem>` line on stderr and ends the walk (later errors
 * are not printed); the tools then exit 2.
 */
class ArgReader
{
  public:
    ArgReader(const char *tool, int argc, char **argv)
        : tool_(tool), argc_(argc), argv_(argv)
    {}

    /** Step to the next argument; false at the end or after an error. */
    bool next() { return ok_ && ++i_ < argc_; }

    const char *arg() const { return argv_[i_]; }
    bool is(const char *flag) const { return !std::strcmp(arg(), flag); }
    bool ok() const { return ok_; }

    /** The current flag's value (the next argument), or nullptr. */
    const char *value();

    /** The current flag's value into @p out. */
    void text(std::string &out);

    /** The current flag's value as a whole decimal integer. */
    template <class T>
    void
    number(T &out)
    {
        const std::string flag = arg();
        const char *v = value();
        if (v && !util::parseNumber(v, out))
            fail(flag + " needs an integer (got " + v + ")");
    }

    /** Report a usage error (only the first is printed). */
    void fail(const std::string &problem);

  private:
    const char *tool_;
    int argc_;
    char **argv_;
    int i_ = 0;
    bool ok_ = true;
};

/**
 * Render through @p fn to stdout when @p path is "-", else atomically
 * to @p path (tmp + fsync + rename, so a crash or a full disk never
 * leaves a torn file).  A failed write prints `<tool>: <reason>` and
 * returns false.
 */
bool withStream(const char *tool, const std::string &path,
                const std::function<void(std::ostream &)> &fn);

/**
 * Run a tool's @p body and return its exit code, or 2 when a
 * std::invalid_argument escapes (a bad config or spec, printed as
 * `<tool>: <what>`), or 3 for any other exception (`<tool>: internal
 * error: <what>`).
 */
int runGuarded(const char *tool, const std::function<int()> &body);

} // namespace cactid::tools

#endif // CACTID_TOOLS_CLI_HH
