/**
 * @file
 * Shard-merge report implementation.
 */

#include "report.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/numfmt.hh"
#include "obs/openmetrics.hh"
#include "util/atomic_file.hh"
#include "util/parse.hh"

namespace cactid::tools {

// --- Minimal JSON parser -------------------------------------------

namespace {

/** @p v's number as one whole @p T, else an error quoting its text. */
template <class T>
T
strictNumber(const JsonValue &v, const char *needs)
{
    T out{};
    if (v.kind == JsonValue::Kind::Number &&
        util::parseNumber(v.number, out))
        return out;
    const std::string text =
        v.kind == JsonValue::Kind::Number   ? v.number
        : v.kind == JsonValue::Kind::String ? '"' + v.str + '"'
                                            : "a non-number";
    throw std::invalid_argument(std::string("needs ") + needs + " (got " +
                                text + ")");
}

} // namespace

double
JsonValue::asDouble() const
{
    return strictNumber<double>(*this, "a finite number");
}

std::uint64_t
JsonValue::asUint() const
{
    return strictNumber<std::uint64_t>(*this, "a whole number >= 0");
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

namespace {

class Parser {
  public:
    Parser(const std::string &text, std::string *err)
        : begin_(text.data()), p_(text.data()),
          end_(text.data() + text.size()), err_(err)
    {
    }

    bool
    parse(JsonValue &out)
    {
        ws();
        if (!value(out))
            return false;
        ws();
        if (p_ != end_)
            return fail("trailing content after value");
        return true;
    }

  private:
    bool
    fail(const std::string &msg)
    {
        if (err_) {
            *err_ = "json parse error at offset " +
                    std::to_string(p_ - begin_) + ": " + msg;
        }
        return false;
    }

    void
    ws()
    {
        while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' ||
                              *p_ == '\n' || *p_ == '\r'))
            ++p_;
    }

    bool
    literal(const char *word)
    {
        const char *q = p_;
        for (const char *w = word; *w; ++w, ++q) {
            if (q == end_ || *q != *w)
                return fail(std::string("expected '") + word + "'");
        }
        p_ = q;
        return true;
    }

    bool
    string(std::string &out)
    {
        if (p_ == end_ || *p_ != '"')
            return fail("expected string");
        ++p_;
        out.clear();
        while (p_ != end_ && *p_ != '"') {
            char c = *p_++;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (p_ == end_)
                return fail("unterminated escape");
            c = *p_++;
            switch (c) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (end_ - p_ < 4)
                    return fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = *p_++;
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= unsigned(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                // BMP only (the repo's own dumps never emit
                // surrogate pairs).
                if (cp < 0x80) {
                    out += char(cp);
                } else if (cp < 0x800) {
                    out += char(0xC0 | (cp >> 6));
                    out += char(0x80 | (cp & 0x3F));
                } else {
                    out += char(0xE0 | (cp >> 12));
                    out += char(0x80 | ((cp >> 6) & 0x3F));
                    out += char(0x80 | (cp & 0x3F));
                }
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
        if (p_ == end_)
            return fail("unterminated string");
        ++p_; // closing quote
        return true;
    }

    bool
    value(JsonValue &out)
    {
        if (p_ == end_)
            return fail("unexpected end of input");
        switch (*p_) {
        case '{': {
            out.kind = JsonValue::Kind::Object;
            ++p_;
            ws();
            if (p_ != end_ && *p_ == '}') {
                ++p_;
                return true;
            }
            for (;;) {
                std::string key;
                ws();
                if (!string(key))
                    return false;
                ws();
                if (p_ == end_ || *p_ != ':')
                    return fail("expected ':'");
                ++p_;
                ws();
                JsonValue v;
                if (!value(v))
                    return false;
                out.object.emplace_back(std::move(key), std::move(v));
                ws();
                if (p_ != end_ && *p_ == ',') {
                    ++p_;
                    continue;
                }
                if (p_ != end_ && *p_ == '}') {
                    ++p_;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        case '[': {
            out.kind = JsonValue::Kind::Array;
            ++p_;
            ws();
            if (p_ != end_ && *p_ == ']') {
                ++p_;
                return true;
            }
            for (;;) {
                JsonValue v;
                ws();
                if (!value(v))
                    return false;
                out.array.push_back(std::move(v));
                ws();
                if (p_ != end_ && *p_ == ',') {
                    ++p_;
                    continue;
                }
                if (p_ != end_ && *p_ == ']') {
                    ++p_;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        case '"':
            out.kind = JsonValue::Kind::String;
            return string(out.str);
        case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
        case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
        case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null");
        default: {
            const char *start = p_;
            if (p_ != end_ && (*p_ == '-' || *p_ == '+'))
                ++p_;
            while (p_ != end_ &&
                   ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' ||
                    *p_ == 'e' || *p_ == 'E' || *p_ == '-' ||
                    *p_ == '+'))
                ++p_;
            if (p_ == start)
                return fail("unexpected character");
            out.kind = JsonValue::Kind::Number;
            out.number.assign(start, p_);
            return true;
        }
        }
    }

    const char *begin_;
    const char *p_;
    const char *end_;
    std::string *err_;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string *err)
{
    return Parser(text, err).parse(out);
}

// --- Loaders -------------------------------------------------------

namespace {

/** Rebuild a Registry from its dumped JSON object. */
bool
registryFromJson(const JsonValue &j, obs::Registry &reg,
                 std::string *err)
{
    std::string field; // what is being read, for the error message
    try {
        if (const JsonValue *counters = j.find("counters")) {
            for (const auto &[name, v] : counters->object) {
                field = "counter '" + name + "'";
                reg.counter(name) = v.asUint();
            }
        }
        if (const JsonValue *gauges = j.find("gauges")) {
            for (const auto &[name, v] : gauges->object) {
                field = "gauge '" + name + "'";
                reg.gauge(name) = v.asDouble();
            }
        }
        if (const JsonValue *histograms = j.find("histograms")) {
            for (const auto &[name, v] : histograms->object) {
                field = "histogram '" + name + "'";
                const JsonValue *bounds = v.find("bounds");
                const JsonValue *counts = v.find("counts");
                const JsonValue *total = v.find("total");
                const JsonValue *sum = v.find("sum");
                if (!bounds || !counts || !total || !sum)
                    throw std::invalid_argument(
                        "missing bounds/counts/total/sum");
                std::vector<double> b;
                b.reserve(bounds->array.size());
                for (const JsonValue &x : bounds->array)
                    b.push_back(x.asDouble());
                std::vector<std::uint64_t> c;
                c.reserve(counts->array.size());
                for (const JsonValue &x : counts->array)
                    c.push_back(x.asUint());
                const obs::Histogram h = obs::Histogram::fromParts(
                    std::move(b), std::move(c), total->asUint(),
                    sum->asDouble());
                reg.histogram(name, h.bounds()).merge(h);
            }
        }
    } catch (const std::invalid_argument &e) {
        if (err)
            *err = field + ": " + e.what();
        return false;
    }
    return true;
}

} // namespace

bool
loadRegistryDump(const std::string &path, RegistryShard &out,
                 std::string *err)
{
    out.path = path;
    std::string text;
    if (!util::readFile(path, text, err))
        return false;
    JsonValue root;
    if (!parseJson(text, root, err)) {
        if (err)
            *err = path + ": " + *err;
        return false;
    }
    const JsonValue *schema = root.find("schema");
    if (!schema || schema->str != "cactid-obs-v1") {
        if (err)
            *err = path + ": not a cactid-obs-v1 registry dump";
        return false;
    }
    const JsonValue *regs = root.find("registries");
    if (!regs || regs->kind != JsonValue::Kind::Array) {
        if (err)
            *err = path + ": missing registries array";
        return false;
    }
    for (const JsonValue &item : regs->array) {
        const JsonValue *label = item.find("label");
        const JsonValue *reg = item.find("registry");
        if (!label || !reg) {
            if (err)
                *err = path + ": registry entry without label/registry";
            return false;
        }
        obs::Registry r;
        std::string rerr;
        if (!registryFromJson(*reg, r, &rerr)) {
            if (err)
                *err = path + ": registry '" + label->str +
                       "': " + rerr;
            return false;
        }
        out.registries.emplace_back(label->str, std::move(r));
    }
    return true;
}

bool
loadTelemetry(const std::string &path, TelemetryShard &out,
              std::string *err)
{
    out.path = path;
    std::string text;
    if (!util::readFile(path, text, err))
        return false;
    std::istringstream is(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JsonValue rec;
        std::string perr;
        if (!parseJson(line, rec, &perr)) {
            if (err)
                *err = path + ":" + std::to_string(lineno) + ": " +
                       perr;
            return false;
        }
        const JsonValue *type = rec.find("record");
        if (!type)
            continue;
        std::string field; // what is being read, for the error message
        // Member @p key of @p obj, when both exist, as a whole count.
        const auto count = [&field](const JsonValue *obj, const char *key,
                                    std::uint64_t &out) {
            if (const JsonValue *v = obj ? obj->find(key) : nullptr) {
                field = key;
                out = v->asUint();
            }
        };
        const auto str = [](const JsonValue &obj, const char *key,
                            std::string &out) {
            if (const JsonValue *v = obj.find(key))
                out = v->str;
        };
        try {
            if (type->str == "start") {
                const JsonValue *schema = rec.find("schema");
                if (!schema || schema->str != "cactid-telemetry-v1") {
                    if (err)
                        *err = path + ": not a cactid-telemetry-v1 stream";
                    return false;
                }
                count(&rec, "total_runs", out.totalRuns);
            } else if (type->str == "run") {
                TelemetryRun run;
                count(&rec, "index", run.index);
                str(rec, "config", run.config);
                str(rec, "workload", run.workload);
                str(rec, "status", run.status);
                count(&rec, "attempts", run.attempts);
                if (const JsonValue *e = rec.find("error")) {
                    str(*e, "message", run.errorMessage);
                    str(*e, "phase", run.errorPhase);
                    count(e, "cycle", run.errorCycle);
                }
                const JsonValue *host = rec.find("host");
                count(host, "wall_ms", run.wallMs);
                count(host, "cpu_ms", run.cpuMs);
                count(host, "peak_rss_kb", run.peakRssKb);
                out.runs.push_back(std::move(run));
            } else if (type->str == "summary") {
                out.hasSummary = true;
                count(&rec, "ok", out.ok);
                count(&rec, "failed", out.failed);
                count(&rec, "timed_out", out.timedOut);
                count(&rec, "skipped", out.skipped);
                count(&rec, "retries", out.retries);
                if (const JsonValue *c = rec.find("counters")) {
                    for (const auto &[name, v] : c->object) {
                        field = "counter '" + name + "'";
                        out.counters[name] += v.asUint();
                    }
                }
                const JsonValue *host = rec.find("host");
                count(host, "elapsed_ms", out.elapsedMs);
                count(host, "cpu_ms", out.cpuMs);
                count(host, "peak_rss_kb", out.peakRssKb);
            }
        } catch (const std::invalid_argument &e) {
            if (err)
                *err = path + ":" + std::to_string(lineno) + ": " + field +
                       ": " + e.what();
            return false;
        }
        // heartbeat records are transient progress; the report reads
        // the durable run/summary records instead.
    }
    std::sort(out.runs.begin(), out.runs.end(),
              [](const TelemetryRun &a, const TelemetryRun &b) {
                  return a.index < b.index;
              });
    return true;
}

// --- Merge and report ----------------------------------------------

std::vector<std::pair<std::string, obs::Registry>>
mergeShards(const std::vector<RegistryShard> &shards)
{
    std::map<std::string, obs::Registry> by_label;
    for (const RegistryShard &shard : shards) {
        for (const auto &[label, reg] : shard.registries) {
            try {
                by_label[label].merge(reg);
            } catch (const std::invalid_argument &e) {
                throw std::invalid_argument(shard.path +
                                            ": registry '" + label +
                                            "': " + e.what());
            }
        }
    }
    std::vector<std::pair<std::string, obs::Registry>> out;
    out.reserve(by_label.size());
    for (auto &[label, reg] : by_label)
        out.emplace_back(label, std::move(reg));
    return out;
}

namespace {

std::string
fmtMs(std::uint64_t ms)
{
    return std::to_string(ms) + " ms";
}

} // namespace

void
writeMarkdownReport(std::ostream &os,
                    const std::vector<RegistryShard> &registries,
                    const std::vector<TelemetryShard> &telemetry,
                    int topN)
{
    os << "# Sweep report\n";

    // --- Progress (telemetry).
    if (!telemetry.empty()) {
        std::uint64_t total = 0, done = 0, ok = 0, failed = 0,
                      timed_out = 0, skipped = 0, retries = 0,
                      cpu_ms = 0, elapsed_ms = 0, rss_kb = 0;
        std::map<std::string, std::uint64_t> counters;
        for (const TelemetryShard &t : telemetry) {
            total += t.totalRuns;
            done += t.runs.size();
            ok += t.ok;
            failed += t.failed;
            timed_out += t.timedOut;
            skipped += t.skipped;
            retries += t.retries;
            cpu_ms += t.cpuMs;
            elapsed_ms = std::max(elapsed_ms, t.elapsedMs);
            rss_kb = std::max(rss_kb, t.peakRssKb);
            for (const auto &[name, v] : t.counters)
                counters[name] += v;
        }
        os << "\n## Progress\n\n";
        os << "| metric | value |\n|---|---|\n";
        os << "| runs | " << done << " / " << total << " |\n";
        os << "| ok | " << ok << " |\n";
        os << "| failed | " << failed << " |\n";
        os << "| timed out | " << timed_out << " |\n";
        os << "| skipped | " << skipped << " |\n";
        os << "| retries | " << retries << " |\n";
        os << "| elapsed (max shard) | " << fmtMs(elapsed_ms)
           << " |\n";
        os << "| cpu time (all shards) | " << fmtMs(cpu_ms) << " |\n";
        os << "| peak rss (max shard) | " << rss_kb << " kB |\n";
        if (elapsed_ms > 0) {
            os << "| throughput | "
               << obs::fmtDouble(double(done) * 1000.0 /
                                 double(elapsed_ms))
               << " runs/s |\n";
        }
        if (!counters.empty()) {
            os << "\n## Simulated totals\n\n";
            os << "| counter | value |\n|---|---|\n";
            for (const auto &[name, v] : counters)
                os << "| " << name << " | " << v << " |\n";
        }
    }

    // --- Latency percentiles (merged registries).
    if (!registries.empty()) {
        const auto merged = mergeShards(registries);

        // One distribution per sim.lat.* metric, merged across every
        // run registry (bounds are shared by construction).
        std::map<std::string, obs::Histogram> lat;
        for (const auto &[label, reg] : merged) {
            for (const auto &[name, h] : reg.histograms()) {
                if (name.rfind("sim.lat.", 0) != 0)
                    continue;
                const auto it = lat.find(name);
                if (it == lat.end())
                    lat.emplace(name, h);
                else
                    it->second.merge(h);
            }
        }
        if (!lat.empty()) {
            os << "\n## Latency percentiles (simulated cycles, all "
                  "runs)\n\n";
            os << "| level | count | p50 | p90 | p99 |\n"
                  "|---|---|---|---|---|\n";
            for (const auto &[name, h] : lat) {
                os << "| " << name.substr(8) << " | " << h.total()
                   << " | " << obs::fmtDouble(h.quantile(0.50))
                   << " | " << obs::fmtDouble(h.quantile(0.90))
                   << " | " << obs::fmtDouble(h.quantile(0.99))
                   << " |\n";
            }
        }

        // Per-run registry census: labels plus failure counters when
        // the dump was a v2 (resilient) sweep.
        std::uint64_t runs = 0, reg_failed = 0, reg_retries = 0;
        for (const auto &[label, reg] : merged) {
            if (label == "sweep")
                continue;
            ++runs;
            reg_failed += reg.counterValue("run.failed");
            if (reg.hasCounter("run.attempts"))
                reg_retries += reg.counterValue("run.attempts") - 1;
        }
        os << "\n## Registries\n\n";
        os << "| metric | value |\n|---|---|\n";
        os << "| run registries | " << runs << " |\n";
        os << "| failed runs | " << reg_failed << " |\n";
        os << "| retries | " << reg_retries << " |\n";
    }

    // --- Slowest runs (telemetry; host wall time, index tiebreak).
    if (!telemetry.empty()) {
        std::vector<const TelemetryRun *> all;
        for (const TelemetryShard &t : telemetry) {
            for (const TelemetryRun &r : t.runs)
                all.push_back(&r);
        }
        std::stable_sort(all.begin(), all.end(),
                         [](const TelemetryRun *a,
                            const TelemetryRun *b) {
                             if (a->wallMs != b->wallMs)
                                 return a->wallMs > b->wallMs;
                             return a->index < b->index;
                         });
        const std::size_t n = std::min<std::size_t>(
            all.size(), topN > 0 ? std::size_t(topN) : 0);
        if (n > 0) {
            os << "\n## Slowest runs (host wall time)\n\n";
            os << "| rank | run | status | wall | cpu |\n"
                  "|---|---|---|---|---|\n";
            for (std::size_t i = 0; i < n; ++i) {
                const TelemetryRun &r = *all[i];
                os << "| " << (i + 1) << " | " << r.workload << "/"
                   << r.config << " | " << r.status << " | "
                   << fmtMs(r.wallMs) << " | " << fmtMs(r.cpuMs)
                   << " |\n";
            }
        }

        // --- Fault / retry census.
        os << "\n## Faults and retries\n\n";
        std::vector<const TelemetryRun *> bad;
        std::uint64_t retried = 0;
        for (const TelemetryRun *r : all) {
            if (r->status != "ok")
                bad.push_back(r);
            if (r->attempts > 1)
                ++retried;
        }
        std::sort(bad.begin(), bad.end(),
                  [](const TelemetryRun *a, const TelemetryRun *b) {
                      return a->index < b->index;
                  });
        if (bad.empty() && retried == 0) {
            os << "All " << all.size()
               << " completed runs finished ok on the first "
                  "attempt.\n";
        } else {
            os << "| run | status | attempts | phase | error |\n"
                  "|---|---|---|---|---|\n";
            for (const TelemetryRun *r : bad) {
                os << "| " << r->workload << "/" << r->config << " | "
                   << r->status << " | " << r->attempts << " | "
                   << (r->errorPhase.empty() ? "-" : r->errorPhase)
                   << " | "
                   << (r->errorMessage.empty() ? "-" : r->errorMessage)
                   << " |\n";
            }
            os << "\n" << retried
               << " run(s) needed more than one attempt.\n";
        }
    }
}

void
writeMergedOpenMetrics(std::ostream &os,
                       const std::vector<RegistryShard> &shards)
{
    const auto merged = mergeShards(shards);
    std::vector<std::pair<std::string, const obs::Registry *>> items;
    items.reserve(merged.size());
    for (const auto &[label, reg] : merged)
        items.emplace_back(label, &reg);
    obs::writeOpenMetrics(os, items);
}

} // namespace cactid::tools
