/**
 * @file
 * Key = value configuration-file parser for the cactid command-line
 * tool (the moral equivalent of classic CACTI's cache.cfg front end).
 */

#ifndef CACTID_TOOLS_CONFIG_PARSER_HH
#define CACTID_TOOLS_CONFIG_PARSER_HH

#include <istream>
#include <string>

#include "core/config.hh"

namespace cactid::tools {

/**
 * Parse a configuration stream into a MemoryConfig.  A config
 * describes only the memory to model; how a solve runs (threads,
 * cache) is set on the command line.
 *
 * Recognized keys (one `key = value` per line, `#` comments):
 *
 *   size              capacity, with K/M/G suffixes (e.g. "24M")
 *   block             line size in bytes
 *   associativity     ways (caches)
 *   banks             bank count
 *   type              ram | cache | main_memory
 *   access_mode       normal | sequential | fast
 *   technology        sram | lp-dram | comm-dram
 *   tag_technology    sram | lp-dram | comm-dram
 *   feature_nm        32 .. 90
 *   temperature_k     300 .. 400
 *   sleep_tx          true | false
 *   ecc               true | false
 *   max_area          max area constraint (fraction, e.g. 0.4)
 *   max_acctime       max access time constraint (fraction)
 *   repeater_derate   max repeater delay derate (>= 1)
 *   weight_dynamic / weight_leakage / weight_cycle /
 *   weight_interleave / weight_acctime / weight_area
 *   io_bits, burst_length, prefetch_width, page_bytes  (main memory)
 *   address_bits      physical address width
 *
 * @throws std::invalid_argument on unknown keys or malformed values,
 *         naming the line.
 */
MemoryConfig parseConfig(std::istream &in);

/**
 * Apply one `key = value` setting, the unit config-file lines and
 * cactid-serve request members are both made of: @p key is lower-cased
 * and @p value trimmed, then parsed as parseConfig lists them.
 *
 * @throws std::invalid_argument naming the key on an unknown key or a
 *         malformed value.
 */
void applyConfigKey(MemoryConfig &cfg, const std::string &key,
                    const std::string &value);

/** Parse a capacity string with optional K/M/G suffix ("24M"). */
double parseCapacity(const std::string &text);

} // namespace cactid::tools

#endif // CACTID_TOOLS_CONFIG_PARSER_HH
