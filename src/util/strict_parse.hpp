/**
 * @file
 * Strict whole-string numeric parsing shared by the command-line
 * parser (util/cli.hpp) and the registry's spec-parameter grammar
 * (sim/spec_params.hpp). Unlike raw strtoull/strtod these reject
 * partial parses ("1e6" as an integer, "7x"), leading/trailing
 * whitespace, signs on unsigned values (strtoull silently wraps
 * "-1" to 2^64-1), and out-of-range magnitudes.
 */

#ifndef TAGECON_UTIL_STRICT_PARSE_HPP
#define TAGECON_UTIL_STRICT_PARSE_HPP

#include <cstdint>
#include <string>

namespace tagecon {

/**
 * Parse @p text as an unsigned 64-bit integer: decimal, or hex with a
 * 0x/0X prefix. A leading zero is still decimal ("010" is 10), never
 * octal. On failure returns false and describes the problem in @p why
 * ("trailing garbage", "out of range", ...).
 */
bool parseUint64(const std::string& text, uint64_t& out,
                 std::string& why);

/**
 * Parse @p text as a signed 64-bit integer: an optional sign, then a
 * magnitude as parseUint64() reads it ("-012" is -12).
 */
bool parseInt64(const std::string& text, int64_t& out, std::string& why);

/** Parse @p text as a finite double; see parseUint64(). */
bool parseFiniteDouble(const std::string& text, double& out,
                       std::string& why);

} // namespace tagecon

#endif // TAGECON_UTIL_STRICT_PARSE_HPP
