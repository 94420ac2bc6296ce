#include "util/strict_parse.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace tagecon {

namespace {

/** Reject empty strings and surrounding whitespace up front: strtoull
 *  and friends silently skip leading whitespace, which lets values
 *  like " 5" or "5 " through depending on the side. */
bool
checkShape(const std::string& text, std::string& why)
{
    if (text.empty()) {
        why = "empty value";
        return false;
    }
    if (std::isspace(static_cast<unsigned char>(text.front())) ||
        std::isspace(static_cast<unsigned char>(text.back()))) {
        why = "surrounding whitespace";
        return false;
    }
    return true;
}

/**
 * Parse the unsigned magnitude at @p digits, the rest of the string:
 * decimal, or hex after a 0x/0X prefix. Never octal: strtoull's base
 * 0 would read a leading zero ("010") as octal and "08" as garbage.
 */
bool
parseMagnitude(const char* digits, uint64_t& out, std::string& why)
{
    const bool hex = digits[0] == '0' &&
                     (digits[1] == 'x' || digits[1] == 'X') &&
                     std::isxdigit(static_cast<unsigned char>(digits[2]));
    // strtoull would skip whitespace and take a sign here: a digit
    // must come first.
    if (!hex && !std::isdigit(static_cast<unsigned char>(digits[0]))) {
        why = "not a number";
        return false;
    }
    const char* start = digits + (hex ? 2 : 0);
    errno = 0;
    char* end = nullptr;
    const uint64_t v = std::strtoull(start, &end, hex ? 16 : 10);
    if (*end != '\0') {
        why = std::string("trailing garbage '") + end + "'";
        return false;
    }
    if (errno == ERANGE) {
        why = "out of range";
        return false;
    }
    out = v;
    return true;
}

} // namespace

bool
parseUint64(const std::string& text, uint64_t& out, std::string& why)
{
    if (!checkShape(text, why))
        return false;
    // strtoull accepts a leading '-' and wraps the value; forbid signs.
    if (text.front() == '-' || text.front() == '+') {
        why = "sign on unsigned value";
        return false;
    }
    return parseMagnitude(text.c_str(), out, why);
}

bool
parseInt64(const std::string& text, int64_t& out, std::string& why)
{
    if (!checkShape(text, why))
        return false;
    const bool negative = text.front() == '-';
    const bool sign = negative || text.front() == '+';
    uint64_t magnitude = 0;
    if (!parseMagnitude(text.c_str() + (sign ? 1 : 0), magnitude, why))
        return false;
    const uint64_t limit =
        uint64_t{std::numeric_limits<int64_t>::max()} + (negative ? 1 : 0);
    if (magnitude > limit) {
        why = "out of range";
        return false;
    }
    out = negative ? static_cast<int64_t>(0 - magnitude)
                   : static_cast<int64_t>(magnitude);
    return true;
}

bool
parseFiniteDouble(const std::string& text, double& out, std::string& why)
{
    if (!checkShape(text, why))
        return false;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str()) {
        why = "not a number";
        return false;
    }
    if (*end != '\0') {
        why = std::string("trailing garbage '") + end + "'";
        return false;
    }
    if (errno == ERANGE || !std::isfinite(v)) {
        why = "out of range";
        return false;
    }
    out = v;
    return true;
}

} // namespace tagecon
