/**
 * @file
 * The request/response layer behind `cactid-serve`: a JSONL solve
 * service over the batch engine and the memoized solve cache.
 *
 * One request per line:
 *
 *   {"id": "l3-sweep-7", "config": {"size": "24M", "type": "cache",
 *    "associativity": 12, "technology": "lp-dram", ...}}
 *
 * The "config" object holds exactly the `key = value` vocabulary of
 * the cactid config-file parser (tools/config_parser.hh).  Each
 * member goes through applyConfigKey as one key and one value (a
 * string, number or boolean), never spliced into config text, so a
 * newline or `#` inside a member is just a bad value.  A config holds
 * no execution setting, so a request cannot change how the server
 * runs.  "id" is optional and echoed back verbatim.
 *
 * One response per request, in request order, rendered with the
 * locale-proof fmtDouble so equal solves always produce equal bytes:
 *
 *   {"index": 0, "id": "l3-sweep-7", "status": "ok",
 *    "fingerprint": "<32 hex>", "best": {...}, "filtered": N,
 *    "explored": M}
 *   {"index": 3, "id": "bad", "status": "error", "message": "..."}
 *
 * Requests flow through one SolverEngine::solveBatch on
 * ServeOptions::solver's jobs, so duplicate configs solve once,
 * weight-only variants share one enumeration, and the responses are
 * the same bytes for any jobs; the SolveCache in ServeOptions::solver
 * (the tool builds one behind --cache-dir) memoizes across runs via
 * its on-disk store.
 */

#ifndef CACTID_TOOLS_SERVE_HH
#define CACTID_TOOLS_SERVE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/engine.hh"

namespace cactid {
class SolveCache;
namespace obs {
class Registry;
}
} // namespace cactid

namespace cactid::tools {

/** One parsed request line. */
struct ServeRequest {
    std::size_t index = 0; ///< index in the request stream
    std::string id;        ///< client id, echoed back ("" if absent)
    MemoryConfig cfg;
    bool ok = false;    ///< parse success
    std::string error;  ///< parse diagnostic when !ok
};

/**
 * Parse one JSONL request line (at stream position @p index).  Parse
 * failures land in the returned request's error field — the server
 * answers them with a status:"error" response instead of dying.
 */
ServeRequest parseServeRequest(const std::string &line,
                               std::size_t index);

/** How to execute a request stream. */
struct ServeOptions {
    SolverOptions solver; ///< jobs / cache for the engine
};

/** What one serve pass did. */
struct ServeStats {
    std::size_t requests = 0; ///< non-blank request lines
    std::size_t ok = 0;
    std::size_t failed = 0; ///< parse errors + infeasible solves
};

/**
 * Serve the non-empty lines of a request stream and return one
 * response line (no trailing newline) per request, in request order.
 * Solves go through one SolverEngine::solveBatch, which reports
 * errors per request, so one bad config only fails its own response.
 */
std::vector<std::string>
serveRequests(const std::vector<std::string> &lines,
              const ServeOptions &opts, ServeStats *stats = nullptr);

/**
 * Publish the serve counters: serve.requests / serve.ok /
 * serve.failed plus four solve-cache counters (engine.cache.hits /
 * misses / evictions / rejected).  Every name is always written —
 * zeros when the cache is disabled or unhit — so every dump has the
 * same label set.  The occupancy and disk-split counters (entries,
 * bytes, disk_hits, disk_writes, inserts) are not in that set;
 * `cactid` publishes them via registerSolveCacheStats.
 */
void registerServeStats(obs::Registry &r, const ServeStats &s,
                        const SolveCache *cache);

} // namespace cactid::tools

#endif // CACTID_TOOLS_SERVE_HH
