/**
 * @file
 * Shared argv walker, output sink and exception guard.
 */

#include "tools/cli.hh"

#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "util/atomic_file.hh"

namespace cactid::tools {

const char *
ArgReader::value()
{
    if (i_ + 1 < argc_)
        return argv_[++i_];
    fail(std::string(arg()) + " needs a value");
    return nullptr;
}

void
ArgReader::text(std::string &out)
{
    if (const char *v = value())
        out = v;
}

void
ArgReader::fail(const std::string &problem)
{
    if (ok_)
        std::fprintf(stderr, "%s: %s\n", tool_, problem.c_str());
    ok_ = false;
}

bool
withStream(const char *tool, const std::string &path,
           const std::function<void(std::ostream &)> &fn)
{
    if (path == "-") {
        fn(std::cout);
        std::cout.flush();
        if (!std::cout) {
            std::fprintf(stderr, "%s: write to stdout failed\n", tool);
            return false;
        }
        return true;
    }
    std::string err;
    if (!util::writeFileAtomic(path, fn, &err)) {
        std::fprintf(stderr, "%s: %s\n", tool, err.c_str());
        return false;
    }
    return true;
}

int
runGuarded(const char *tool, const std::function<int()> &body)
{
    try {
        return body();
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s: %s\n", tool, e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: internal error: %s\n", tool, e.what());
        return 3;
    } catch (...) {
        std::fprintf(stderr, "%s: internal error: unknown exception\n",
                     tool);
        return 3;
    }
}

} // namespace cactid::tools
