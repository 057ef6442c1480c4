/**
 * @file
 * Configuration-file parser implementation.
 */

#include "tools/config_parser.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "util/parse.hh"

namespace cactid::tools {

namespace {

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\r");
    const auto e = s.find_last_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    return s.substr(b, e - b + 1);
}

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

bool
parseBool(const std::string &v)
{
    const std::string s = lower(v);
    if (s == "true" || s == "1" || s == "yes")
        return true;
    if (s == "false" || s == "0" || s == "no")
        return false;
    throw std::invalid_argument("expected boolean, got '" + v + "'");
}

RamCellTech
parseTech(const std::string &v)
{
    const std::string s = lower(v);
    if (s == "sram")
        return RamCellTech::Sram;
    if (s == "lp-dram" || s == "lpdram" || s == "edram")
        return RamCellTech::LpDram;
    if (s == "comm-dram" || s == "commdram" || s == "dram")
        return RamCellTech::CommDram;
    throw std::invalid_argument("unknown technology '" + v + "'");
}

/** parseCapacity's value, or false when @p text is not a capacity. */
bool
capacityValue(const std::string &text, double &out)
{
    std::string t = trim(text);
    if (t.empty())
        return false;
    double mult = 1.0;
    switch (std::tolower(static_cast<unsigned char>(t.back()))) {
      case 'k': mult = 1024.0; break;
      case 'm': mult = 1024.0 * 1024.0; break;
      case 'g': mult = 1024.0 * 1024.0 * 1024.0; break;
      default: break;
    }
    if (mult != 1.0)
        t.pop_back();
    if (!util::parseNumber(t, out))
        return false;
    out *= mult;
    return std::isfinite(out);
}

} // namespace

double
parseCapacity(const std::string &text)
{
    double bytes = 0.0;
    if (!capacityValue(text, bytes))
        throw std::invalid_argument("bad capacity '" + text + "'");
    return bytes;
}

void
applyConfigKey(MemoryConfig &cfg, const std::string &key_text,
               const std::string &value_text)
{
    const std::string key = lower(trim(key_text));
    const std::string value = trim(value_text);
    if (value.empty())
        throw std::invalid_argument("empty value for " + key);

    const auto bad = [&](const char *what) {
        throw std::invalid_argument(key + " needs " + what + " (got " +
                                    value + ")");
    };
    // nan and inf parse as doubles but are no design parameter; a
    // nan weight would leave the optimizer without a best solution.
    const auto num = [&] {
        double v = 0.0;
        if (!util::parseNumber(value, v) || !std::isfinite(v))
            bad("a finite number");
        return v;
    };
    const auto integer = [&] {
        int v = 0;
        if (!util::parseNumber(value, v))
            bad("an integer");
        return v;
    };

    if (key == "size") {
        if (!capacityValue(value, cfg.capacityBytes))
            bad("a capacity such as 24M");
    } else if (key == "block") {
        cfg.blockBytes = integer();
    } else if (key == "associativity") {
        cfg.associativity = integer();
    } else if (key == "banks") {
        cfg.nBanks = integer();
    } else if (key == "type") {
        const std::string v = lower(value);
        if (v == "ram")
            cfg.type = MemoryType::PlainRam;
        else if (v == "cache")
            cfg.type = MemoryType::Cache;
        else if (v == "main_memory" || v == "main-memory")
            cfg.type = MemoryType::MainMemoryChip;
        else
            throw std::invalid_argument("unknown type '" + value + "'");
    } else if (key == "access_mode") {
        const std::string v = lower(value);
        if (v == "normal")
            cfg.accessMode = AccessMode::Normal;
        else if (v == "sequential")
            cfg.accessMode = AccessMode::Sequential;
        else if (v == "fast")
            cfg.accessMode = AccessMode::Fast;
        else
            throw std::invalid_argument("unknown access mode '" + value +
                                        "'");
    } else if (key == "technology") {
        cfg.dataCellTech = parseTech(value);
    } else if (key == "tag_technology") {
        cfg.tagCellTech = parseTech(value);
    } else if (key == "feature_nm") {
        cfg.featureNm = num();
    } else if (key == "temperature_k") {
        cfg.temperatureK = num();
    } else if (key == "sleep_tx") {
        cfg.sleepTransistors = parseBool(value);
    } else if (key == "ecc") {
        cfg.includeEcc = parseBool(value);
    } else if (key == "max_area") {
        cfg.maxAreaConstraint = num();
    } else if (key == "max_acctime") {
        cfg.maxAccTimeConstraint = num();
    } else if (key == "repeater_derate") {
        cfg.repeaterDerate = num();
    } else if (key == "weight_dynamic") {
        cfg.weights.dynamicEnergy = num();
    } else if (key == "weight_leakage") {
        cfg.weights.leakage = num();
    } else if (key == "weight_cycle") {
        cfg.weights.randomCycle = num();
    } else if (key == "weight_interleave") {
        cfg.weights.interleaveCycle = num();
    } else if (key == "weight_acctime") {
        cfg.weights.accessTime = num();
    } else if (key == "weight_area") {
        cfg.weights.area = num();
    } else if (key == "io_bits") {
        cfg.ioBits = integer();
    } else if (key == "burst_length") {
        cfg.burstLength = integer();
    } else if (key == "prefetch_width") {
        cfg.prefetchWidth = integer();
    } else if (key == "page_bytes") {
        cfg.pageBytes = integer();
    } else if (key == "address_bits") {
        cfg.physicalAddressBits = integer();
    } else {
        throw std::invalid_argument("unknown key '" + key + "'");
    }
}

MemoryConfig
parseConfig(std::istream &in)
{
    MemoryConfig cfg;
    std::string line;
    for (int line_no = 1; std::getline(in, line); ++line_no) {
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        if (trim(line).empty())
            continue;
        const auto eq = line.find('=');
        try {
            if (eq == std::string::npos)
                throw std::invalid_argument("expected key = value");
            applyConfigKey(cfg, line.substr(0, eq), line.substr(eq + 1));
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument("line " + std::to_string(line_no) +
                                        ": " + e.what());
        }
    }
    return cfg;
}

} // namespace cactid::tools
