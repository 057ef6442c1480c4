/**
 * @file
 * cactid-serve request parsing, batch execution and response
 * rendering.
 */

#include "tools/serve.hh"

#include <stdexcept>

#include "core/fingerprint.hh"
#include "core/solve_cache.hh"
#include "obs/numfmt.hh"
#include "obs/registry.hh"
#include "tools/config_parser.hh"
#include "tools/report.hh"

namespace cactid::tools {

namespace {

std::string
renderOkResponse(const ServeRequest &req, const SolveResult &res)
{
    using obs::fmtDouble;
    using obs::jsonEscape;
    const Solution &s = res.best;
    std::string out = "{\"index\":" + std::to_string(req.index);
    out += ",\"id\":\"" + jsonEscape(req.id) + "\"";
    out += ",\"status\":\"ok\"";
    out += ",\"fingerprint\":\"" + configFingerprint(req.cfg).hex() +
           "\"";
    out += ",\"best\":{";
    out += "\"rows\":" + std::to_string(s.data.part.rowsPerSubarray);
    out += ",\"cols\":" + std::to_string(s.data.part.colsPerSubarray);
    out += ",\"blmux\":" + std::to_string(s.data.part.blMux);
    out += ",\"sammux\":" + std::to_string(s.data.part.samMux);
    out += ",\"mats\":" + std::to_string(s.data.nMats);
    out += ",\"subbanks\":" + std::to_string(s.nSubbanks);
    out += ",\"access_s\":" + fmtDouble(s.accessTime);
    out += ",\"random_cycle_s\":" + fmtDouble(s.randomCycle);
    out += ",\"interleave_cycle_s\":" + fmtDouble(s.interleaveCycle);
    out += ",\"total_area_m2\":" + fmtDouble(s.totalArea);
    out += ",\"area_efficiency\":" + fmtDouble(s.areaEfficiency);
    out += ",\"read_energy_j\":" + fmtDouble(s.readEnergy);
    out += ",\"write_energy_j\":" + fmtDouble(s.writeEnergy);
    out += ",\"leakage_w\":" + fmtDouble(s.leakage);
    out += ",\"refresh_w\":" + fmtDouble(s.refreshPower);
    out += ",\"trcd_s\":" + fmtDouble(s.tRcd);
    out += ",\"tcas_s\":" + fmtDouble(s.tCas);
    out += ",\"trp_s\":" + fmtDouble(s.tRp);
    out += ",\"tras_s\":" + fmtDouble(s.tRas);
    out += ",\"trc_s\":" + fmtDouble(s.tRc);
    out += ",\"trrd_s\":" + fmtDouble(s.tRrd);
    out += ",\"activate_energy_j\":" + fmtDouble(s.activateEnergy);
    out += ",\"read_burst_energy_j\":" + fmtDouble(s.readBurstEnergy);
    out +=
        ",\"write_burst_energy_j\":" + fmtDouble(s.writeBurstEnergy);
    out += ",\"objective\":" + fmtDouble(s.objective);
    out += "}";
    out += ",\"filtered\":" + std::to_string(res.filtered.size());
    out += ",\"explored\":" + std::to_string(res.stats.solutionsBuilt);
    out += "}";
    return out;
}

std::string
renderErrorResponse(const ServeRequest &req, const std::string &msg)
{
    using obs::jsonEscape;
    return "{\"index\":" + std::to_string(req.index) + ",\"id\":\"" +
           jsonEscape(req.id) + "\",\"status\":\"error\"" +
           ",\"message\":\"" + jsonEscape(msg) + "\"}";
}

bool
blankLine(const std::string &line)
{
    return line.find_first_not_of(" \t\r") == std::string::npos;
}

} // namespace

ServeRequest
parseServeRequest(const std::string &line, std::size_t index)
{
    ServeRequest req;
    req.index = index;
    JsonValue root;
    std::string err;
    if (!parseJson(line, root, &err)) {
        req.error = "malformed request JSON: " + err;
        return req;
    }
    if (root.kind != JsonValue::Kind::Object) {
        req.error = "request must be a JSON object";
        return req;
    }
    if (const JsonValue *id = root.find("id")) {
        if (id->kind == JsonValue::Kind::String)
            req.id = id->str;
        else if (id->kind == JsonValue::Kind::Number)
            req.id = id->number;
        else {
            req.error = "\"id\" must be a string or number";
            return req;
        }
    }
    const JsonValue *config = root.find("config");
    if (!config || config->kind != JsonValue::Kind::Object) {
        req.error = "request needs a \"config\" object";
        return req;
    }
    try {
        for (const auto &[key, value] : config->object) {
            if (value.kind == JsonValue::Kind::String)
                applyConfigKey(req.cfg, key, value.str);
            else if (value.kind == JsonValue::Kind::Number)
                applyConfigKey(req.cfg, key, value.number);
            else if (value.kind == JsonValue::Kind::Bool)
                applyConfigKey(req.cfg, key,
                               value.boolean ? "true" : "false");
            else
                throw std::invalid_argument(
                    "config value for \"" + key +
                    "\" must be a string, number or boolean");
        }
        req.ok = true;
    } catch (const std::exception &e) {
        req.error = e.what();
    }
    return req;
}

std::vector<std::string>
serveRequests(const std::vector<std::string> &lines,
              const ServeOptions &opts, ServeStats *stats)
{
    ServeStats st;

    std::vector<ServeRequest> reqs;
    for (const std::string &line : lines) {
        if (!blankLine(line))
            reqs.push_back(parseServeRequest(line, reqs.size()));
    }
    st.requests = reqs.size();

    // Batch every parseable request: duplicates solve once, weight-
    // only variants share one enumeration, and the configured cache
    // memoizes across runs.  A request that cannot be solved fails
    // alone, with the error run() would give it.
    struct Outcome {
        bool ok = false;
        SolveResult res;
        std::string error;
    };
    std::vector<std::size_t> valid;
    std::vector<MemoryConfig> cfgs;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (reqs[i].ok) {
            valid.push_back(i);
            cfgs.push_back(reqs[i].cfg);
        }
    }
    std::vector<std::exception_ptr> errors;
    std::vector<SolveResult> results =
        SolverEngine(opts.solver).solveBatch(cfgs, nullptr, &errors);
    std::vector<Outcome> outcomes(reqs.size());
    for (std::size_t v = 0; v < valid.size(); ++v) {
        Outcome &out = outcomes[valid[v]];
        if (!errors[v]) {
            out.ok = true;
            out.res = std::move(results[v]);
            continue;
        }
        try {
            std::rethrow_exception(errors[v]);
        } catch (const std::exception &e) {
            out.error = e.what();
        }
    }

    std::vector<std::string> responses;
    responses.reserve(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const ServeRequest &req = reqs[i];
        if (!req.ok) {
            ++st.failed;
            responses.push_back(renderErrorResponse(req, req.error));
        } else if (!outcomes[i].ok) {
            ++st.failed;
            responses.push_back(
                renderErrorResponse(req, outcomes[i].error));
        } else {
            ++st.ok;
            responses.push_back(
                renderOkResponse(req, outcomes[i].res));
        }
    }
    if (stats)
        *stats = st;
    return responses;
}

void
registerServeStats(obs::Registry &r, const ServeStats &s,
                   const SolveCache *cache)
{
    r.counter("serve.requests") = s.requests;
    r.counter("serve.ok") = s.ok;
    r.counter("serve.failed") = s.failed;
    const SolveCacheCounters c =
        cache ? cache->counters() : SolveCacheCounters{};
    r.counter("engine.cache.hits") = c.hits;
    r.counter("engine.cache.misses") = c.misses;
    r.counter("engine.cache.evictions") = c.evictions;
    r.counter("engine.cache.rejected") = c.rejected;
}

} // namespace cactid::tools
