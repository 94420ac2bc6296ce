#include "util/cli.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/strict_parse.hpp"

namespace tagecon {

CliArgs::CliArgs(int argc, const char* const* argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(std::move(arg));
            continue;
        }
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
            continue;
        }
        // "--name value" form only when the next token is not a flag and
        // looks like a value; otherwise treat as boolean.
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            flags_[arg] = argv[i + 1];
            ++i;
        } else {
            flags_[arg] = "";
        }
    }
}

bool
CliArgs::has(const std::string& name) const
{
    return flags_.count(name) > 0;
}

std::string
CliArgs::getString(const std::string& name, const std::string& def) const
{
    const auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second;
}

int64_t
CliArgs::getInt(const std::string& name, int64_t def) const
{
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    int64_t v = 0;
    std::string why;
    if (!parseInt64(it->second, v, why))
        fatal("flag --" + name + " expects an integer, got '" +
              it->second + "' (" + why + ")");
    return v;
}

uint64_t
CliArgs::getUint(const std::string& name, uint64_t def) const
{
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    uint64_t v = 0;
    std::string why;
    if (!parseUint64(it->second, v, why))
        fatal("flag --" + name + " expects an unsigned integer, got '" +
              it->second + "' (" + why + ")");
    return v;
}

uint64_t
CliArgs::getUintInRange(const std::string& name, uint64_t def,
                        uint64_t min, uint64_t max) const
{
    const uint64_t v = getUint(name, def);
    if (v < min || v > max)
        fatal("flag --" + name + " expects a value between " +
              std::to_string(min) + " and " + std::to_string(max) +
              ", got " + std::to_string(v));
    return v;
}

double
CliArgs::getDouble(const std::string& name, double def) const
{
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    double v = 0.0;
    std::string why;
    if (!parseFiniteDouble(it->second, v, why))
        fatal("flag --" + name + " expects a number, got '" +
              it->second + "' (" + why + ")");
    return v;
}

bool
CliArgs::getBool(const std::string& name, bool def) const
{
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    const std::string& v = it->second;
    if (v.empty() || v == "true" || v == "1" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "no")
        return false;
    fatal("flag --" + name + " expects a boolean, got '" + v + "'");
}

std::vector<std::string>
CliArgs::getList(const std::string& name,
                 const std::vector<std::string>& def) const
{
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    std::vector<std::string> items;
    std::string item;
    for (const char c : it->second) {
        if (c == ',') {
            if (!item.empty())
                items.push_back(std::move(item));
            item.clear();
        } else {
            item += c;
        }
    }
    if (!item.empty())
        items.push_back(std::move(item));
    if (items.empty())
        fatal("flag --" + name +
              " expects a non-empty comma-separated list");
    return items;
}

std::vector<std::string>
CliArgs::flagNames() const
{
    std::vector<std::string> names;
    names.reserve(flags_.size());
    for (const auto& [k, v] : flags_)
        names.push_back(k);
    return names;
}

void
CliArgs::rejectUnknownFlags(const std::vector<std::string>& known) const
{
    for (const auto& flag : flagNames()) {
        if (std::find(known.begin(), known.end(), flag) != known.end())
            continue;
        std::string names;
        for (const auto& name : known)
            names += (names.empty() ? "--" : " --") + name;
        fatal("unknown flag --" + flag + " (known: " + names + ")");
    }
}

} // namespace tagecon
