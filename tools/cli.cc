/**
 * @file
 * Flag-table walker, usage text, output sink, `--cache-dir` cache and
 * exception guard.
 */

#include "tools/cli.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

#include "core/config.hh"
#include "core/solve_cache.hh"
#include "obs/build_info.hh"
#include "util/atomic_file.hh"
#include "util/parse.hh"

namespace cactid::tools {

namespace {

/** Apply @p f's value @p v (nullptr for a switch): "" or the problem. */
std::string
apply(const Flag &f, const char *v)
{
    return std::visit(
        [&](auto &target) -> std::string {
            using T = std::decay_t<decltype(target)>;
            if constexpr (std::is_same_v<T, bool *>)
                *target = true;
            else if constexpr (std::is_same_v<T, std::string *>)
                *target = v;
            else if constexpr (std::is_same_v<T, std::vector<std::string> *>)
                target->push_back(v);
            else if (!util::parseNumber(v, *target) ||
                     std::cmp_less(*target, f.min))
                return std::string(f.name) + " needs an integer >= " +
                       std::to_string(f.min) + " (got " + v + ")";
            return "";
        },
        f.target);
}

} // namespace

std::string
usage(const CommandLine &cl)
{
    constexpr std::size_t kColumn = 21, kWidth = 79;
    std::string out = cl.synopsis;
    const auto entry = [&](const std::string &head, const char *help) {
        std::string line = "  " + head;
        bool first = true;
        std::istringstream words(help);
        for (std::string w; words >> w; first = false) {
            if (first && line.size() < kColumn) {
                line.resize(kColumn, ' ');
            } else if (first || line.size() + 1 + w.size() > kWidth) {
                out += line + '\n';
                line.assign(kColumn, ' ');
            } else {
                line += ' ';
            }
            line += w;
        }
        out += line + '\n';
    };
    for (const Flag &f : cl.flags)
        entry(f.value ? std::string(f.name) + " " + f.value : f.name, f.help);
    entry("--version", "print the build stamp");
    entry("-h, --help", "print this text");
    return out + cl.epilog;
}

std::optional<int>
parseCommandLine(const CommandLine &cl, int argc, char **argv)
{
    bool help = false, version = false;
    std::string problem;
    for (int i = 1; i < argc && problem.empty(); ++i) {
        const std::string arg = argv[i];
        const auto f =
            std::find_if(cl.flags.begin(), cl.flags.end(),
                         [&](const Flag &x) { return arg == x.name; });
        if (arg == "--help" || arg == "-h")
            help = true;
        else if (arg == "--version")
            version = true;
        else if (f != cl.flags.end() && f->value && i + 1 == argc)
            problem = arg + " needs a value";
        else if (f != cl.flags.end())
            problem = apply(*f, f->value ? argv[++i] : nullptr);
        else if (!cl.operand || (arg[0] == '-' && arg != "-"))
            problem = "unknown flag " + arg;
        else if (!cl.operand->empty())
            problem = "extra argument " + arg;
        else
            *cl.operand = arg;
    }
    if (!problem.empty()) {
        std::fprintf(stderr, "%s: %s\n", cl.tool, problem.c_str());
        return 2;
    }
    if (version)
        std::printf("%s\n", obs::versionLine(cl.tool).c_str());
    else if (help)
        std::fputs(usage(cl).c_str(), stdout);
    else
        return std::nullopt;
    return 0;
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

std::unique_ptr<SolveCache>
openSolveCache(const char *tool, const std::string &dir)
{
    if (dir.empty())
        return nullptr;
    SolveCacheConfig cc;
    cc.diskDir = dir;
    cc.onWarn = [tool](const std::string &msg) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            std::fprintf(stderr, "%s: %s\n", tool, msg.c_str());
    };
    return std::make_unique<SolveCache>(std::move(cc));
}

int
runGuarded(const char *tool, const std::function<int()> &body)
{
    try {
        return body();
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s: %s\n", tool, e.what());
        return 2;
    } catch (const InfeasibleConfig &e) {
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
