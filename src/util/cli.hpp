/**
 * @file
 * Minimal command-line flag parser for the experiment and example
 * binaries. Supports --name=value, --name value and boolean --name.
 */

#ifndef TAGECON_UTIL_CLI_HPP
#define TAGECON_UTIL_CLI_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tagecon {

/**
 * Parsed command line. Unknown flags are kept until the caller rejects
 * them with rejectUnknownFlags(); positional arguments are collected in
 * order.
 */
class CliArgs
{
  public:
    /** Parse argv; flags start with "--". */
    CliArgs(int argc, const char* const* argv);

    /** True when --name was supplied (with or without a value). */
    bool has(const std::string& name) const;

    /** String value of --name, or @p def when absent. */
    std::string getString(const std::string& name,
                          const std::string& def) const;

    /** Integer value of --name, or @p def when absent; fatal() on junk. */
    int64_t getInt(const std::string& name, int64_t def) const;

    /** Unsigned value of --name, or @p def when absent. */
    uint64_t getUint(const std::string& name, uint64_t def) const;

    /**
     * Like getUint() but additionally fatal()s — naming the flag and
     * the accepted range — when the value falls outside
     * [@p min, @p max]. The range check runs on the full 64-bit value
     * before any caller-side narrowing, so e.g. "--jobs=4294967296"
     * can't silently wrap to 0 through a cast to unsigned.
     */
    uint64_t getUintInRange(const std::string& name, uint64_t def,
                            uint64_t min, uint64_t max) const;

    /**
     * Comma-separated unsigned list of --name, or @p def when absent;
     * each item is parsed and range-checked as getUintInRange() checks
     * one value ("--jobs=1,0,4").
     */
    std::vector<uint64_t>
    getUintListInRange(const std::string& name,
                       const std::vector<uint64_t>& def, uint64_t min,
                       uint64_t max) const;

    /** Double value of --name, or @p def when absent; fatal() on junk. */
    double getDouble(const std::string& name, double def) const;

    /** Boolean flag: present without value or with true/1/yes. */
    bool getBool(const std::string& name, bool def) const;

    /**
     * Comma-separated list value of --name, or @p def when absent.
     * Empty items are dropped ("a,,b" -> {a, b}); a flag that is
     * present but has no items (e.g. an unset shell variable expanding
     * to --name=) is fatal() rather than silently the default.
     */
    std::vector<std::string>
    getList(const std::string& name,
            const std::vector<std::string>& def = {}) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string>& positional() const { return positional_; }

    /** All flag names that were supplied, sorted. */
    std::vector<std::string> flagNames() const;

    /**
     * fatal() on the first supplied flag (in name order) outside
     * @p known, naming it and listing @p known in the given order:
     * "unknown flag --bogus (known: --branches --seed)".
     */
    void rejectUnknownFlags(const std::vector<std::string>& known) const;

  private:
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

} // namespace tagecon

#endif // TAGECON_UTIL_CLI_HPP
