/**
 * @file
 * --cache / --cache-dir wiring.
 */

#include "tools/cache_cli.hh"

#include <memory>
#include <stdexcept>

#include "core/solve_cache.hh"

namespace cactid::tools {

namespace {
std::unique_ptr<SolveCache> g_installed;
} // namespace

void
installSolveCache(const std::string &mode, const std::string &dir)
{
    if (mode != "" && mode != "on" && mode != "off")
        throw std::invalid_argument("--cache must be on or off (got " +
                                    mode + ")");
    if (mode == "off" && !dir.empty())
        throw std::invalid_argument(
            "--cache off cannot be combined with --cache-dir");
    if (mode == "on" || (mode == "" && !dir.empty())) {
        SolveCacheConfig cfg;
        cfg.diskDir = dir;
        g_installed = std::make_unique<SolveCache>(std::move(cfg));
        setGlobalSolveCache(g_installed.get());
    }
}

SolveCache *
installedSolveCache()
{
    return g_installed.get();
}

} // namespace cactid::tools
