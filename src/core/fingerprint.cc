/**
 * @file
 * Canonical config fingerprint implementation.
 */

#include "core/fingerprint.hh"

#include "obs/numfmt.hh"
#include "util/hash.hh"

namespace cactid {

namespace {

const char *
typeName(MemoryType t)
{
    switch (t) {
    case MemoryType::PlainRam:
        return "ram";
    case MemoryType::Cache:
        return "cache";
    case MemoryType::MainMemoryChip:
        return "main_memory";
    }
    return "?";
}

const char *
accessModeName(AccessMode m)
{
    switch (m) {
    case AccessMode::Normal:
        return "normal";
    case AccessMode::Sequential:
        return "sequential";
    case AccessMode::Fast:
        return "fast";
    }
    return "?";
}

const char *
techName(RamCellTech t)
{
    switch (t) {
    case RamCellTech::Sram:
        return "sram";
    case RamCellTech::LpDram:
        return "lp-dram";
    case RamCellTech::CommDram:
        return "comm-dram";
    }
    return "?";
}

std::string
renderKey(const MemoryConfig &cfg, const OptimizationWeights &w)
{
    using obs::fmtDouble;
    std::string s = "cactid-config-v1";
    s.reserve(512);
    auto num = [&](const char *k, double v) {
        s += '|';
        s += k;
        s += '=';
        s += fmtDouble(v);
    };
    auto integer = [&](const char *k, long long v) {
        s += '|';
        s += k;
        s += '=';
        s += std::to_string(v);
    };
    auto word = [&](const char *k, const char *v) {
        s += '|';
        s += k;
        s += '=';
        s += v;
    };
    // What to build.
    num("size", cfg.capacityBytes);
    integer("block", cfg.blockBytes);
    integer("assoc", cfg.associativity);
    integer("banks", cfg.nBanks);
    word("type", typeName(cfg.type));
    word("access_mode", accessModeName(cfg.accessMode));
    integer("address_bits", cfg.physicalAddressBits);
    integer("ports", cfg.ports);
    // Technology.
    integer("ecc", cfg.includeEcc ? 1 : 0);
    num("feature_nm", cfg.featureNm);
    num("temperature_k", cfg.temperatureK);
    word("technology", techName(cfg.dataCellTech));
    word("tag_technology", techName(cfg.tagCellTech));
    integer("sleep_tx", cfg.sleepTransistors ? 1 : 0);
    // Optimization controls.
    num("max_area", cfg.maxAreaConstraint);
    num("max_acctime", cfg.maxAccTimeConstraint);
    num("repeater_derate", cfg.repeaterDerate);
    num("weight_dynamic", w.dynamicEnergy);
    num("weight_leakage", w.leakage);
    num("weight_cycle", w.randomCycle);
    num("weight_interleave", w.interleaveCycle);
    num("weight_acctime", w.accessTime);
    num("weight_area", w.area);
    // Main-memory chip organization.
    integer("io_bits", cfg.ioBits);
    integer("burst_length", cfg.burstLength);
    integer("prefetch_width", cfg.prefetchWidth);
    integer("page_bytes", cfg.pageBytes);
    num("io_delay", cfg.ioDelay);
    num("io_energy_per_bit", cfg.ioEnergyPerBit);
    return s;
}

} // namespace

std::string
ConfigFingerprint::hex() const
{
    return util::hex16(hi) + util::hex16(lo);
}

ConfigFingerprint
keyFingerprint(const std::string &key)
{
    ConfigFingerprint fp;
    fp.lo = util::fnv1a64(key);
    // An independent second lane: different seed (FNV offset basis
    // xor a domain tag) so the two 64-bit hashes do not co-collide.
    fp.hi = util::fnv1a64(key, 0xcbf29ce484222325ULL ^
                                   0x9e3779b97f4a7c15ULL);
    return fp;
}

std::string
canonicalKey(const MemoryConfig &cfg)
{
    return renderKey(cfg, cfg.weights);
}

ConfigFingerprint
configFingerprint(const MemoryConfig &cfg)
{
    return keyFingerprint(canonicalKey(cfg));
}

std::string
canonicalShareKey(const MemoryConfig &cfg)
{
    return renderKey(cfg, OptimizationWeights{0, 0, 0, 0, 0, 0});
}

} // namespace cactid
