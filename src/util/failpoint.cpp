#include "util/failpoint.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "util/mutex.hpp"
#include "util/state_io.hpp"
#include "util/strict_parse.hpp"

namespace tagecon {
namespace failpoints {

namespace detail {
std::atomic<int> g_armed{0};
} // namespace detail

namespace {

/** Per-(rule, key) trigger state. */
struct KeyState {
    uint64_t hits = 0;
    uint64_t fires = 0;
};

struct RuleState {
    FailRule rule;
    std::unordered_map<uint64_t, KeyState> perKey;
};

struct Registry {
    Mutex mutex;
    std::map<std::string, std::vector<RuleState>> bySite
        TAGECON_GUARDED_BY(mutex);
    std::map<std::string, SiteStats> siteStats
        TAGECON_GUARDED_BY(mutex);
};

Registry&
registry()
{
    static Registry r;
    return r;
}

thread_local uint64_t t_scopeKey = kNoKey;

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/**
 * Pure trigger decision for one rate-based hit: a seeded hash of
 * (site, key, hit-index) compared against the rate threshold. No
 * shared RNG stream, so concurrent keys cannot perturb each other.
 */
bool
rateFires(const FailRule& rule, uint64_t key, uint64_t hit_index)
{
    if (rule.rate <= 0.0)
        return false;
    if (rule.rate >= 1.0)
        return true;
    const uint64_t h = splitmix64(rule.seed ^ fnv1a64(rule.site) ^
                                  splitmix64(key) ^ hit_index);
    return static_cast<double>(h) <
           rule.rate * 18446744073709551616.0; // 2^64
}

bool
paramError(std::string& error, const std::string& rule_text,
           const std::string& why)
{
    error = "fault rule '" + rule_text + "': " + why;
    return false;
}

std::vector<std::string>
splitOn(const std::string& text, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (;;) {
        const size_t pos = text.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back(text.substr(start));
            return out;
        }
        out.push_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

} // namespace

const std::vector<std::string>&
knownSites()
{
    static const std::vector<std::string> sites = {
        "ckpt.decode", "ckpt.encode",       "ckpt.read", "ckpt.write",
        "trace.open",  "serve.worker.step", "trace.read"};
    static const std::vector<std::string> sorted = [] {
        auto s = sites;
        std::sort(s.begin(), s.end());
        return s;
    }();
    return sorted;
}

bool
parseFaultSpec(const std::string& spec, std::vector<FailRule>& out,
               std::string& error)
{
    out.clear();
    if (spec.empty())
        return true;
    for (const std::string& rule_text : splitOn(spec, ';')) {
        if (rule_text.empty()) {
            error = "fault spec has an empty rule (stray ';')";
            return false;
        }
        FailRule rule;
        const size_t colon = rule_text.find(':');
        rule.site = rule_text.substr(0, colon);
        const auto& sites = knownSites();
        if (std::find(sites.begin(), sites.end(), rule.site) ==
            sites.end()) {
            std::string all;
            for (const auto& s : sites)
                all += (all.empty() ? "" : " ") + s;
            error = "unknown failpoint site '" + rule.site +
                    "' (known: " + all + ")";
            return false;
        }
        if (colon != std::string::npos) {
            bool have_nth = false, have_rate = false;
            for (const std::string& param :
                 splitOn(rule_text.substr(colon + 1), ',')) {
                const size_t eq = param.find('=');
                if (eq == std::string::npos || eq == 0 ||
                    eq + 1 == param.size())
                    return paramError(error, rule_text,
                                      "expected key=value, got '" +
                                          param + "'");
                const std::string key = param.substr(0, eq);
                const std::string value = param.substr(eq + 1);
                std::string why;
                if (key == "nth") {
                    if (!parseUint64(value, rule.nth, why) ||
                        rule.nth == 0)
                        return paramError(
                            error, rule_text,
                            "nth wants an integer >= 1" +
                                (why.empty() ? "" : " (" + why + ")"));
                    have_nth = true;
                } else if (key == "count") {
                    if (!parseUint64(value, rule.count, why) ||
                        rule.count == 0)
                        return paramError(
                            error, rule_text,
                            "count wants an integer >= 1" +
                                (why.empty() ? "" : " (" + why + ")"));
                } else if (key == "rate") {
                    if (!parseFiniteDouble(value, rule.rate, why) ||
                        rule.rate < 0.0 || rule.rate > 1.0)
                        return paramError(error, rule_text,
                                          "rate wants a number in "
                                          "[0,1]");
                    have_rate = true;
                } else if (key == "seed") {
                    if (!parseUint64(value, rule.seed, why))
                        return paramError(error, rule_text,
                                          "bad seed: " + why);
                } else if (key == "key") {
                    if (!parseUint64(value, rule.key, why))
                        return paramError(error, rule_text,
                                          "bad key: " + why);
                } else if (key == "err") {
                    if (!errCodeFromName(value, rule.code) ||
                        rule.code == ErrCode::None)
                        return paramError(error, rule_text,
                                          "unknown err code '" + value +
                                              "'");
                } else {
                    return paramError(error, rule_text,
                                      "unknown param '" + key + "'");
                }
            }
            if (have_nth && have_rate)
                return paramError(error, rule_text,
                                  "nth and rate are exclusive");
        }
        out.push_back(std::move(rule));
    }
    return true;
}

bool
arm(const std::string& spec, std::string* error)
{
    std::vector<FailRule> rules;
    std::string why;
    if (!parseFaultSpec(spec, rules, why)) {
        if (error)
            *error = why;
        return false;
    }
    armRules(std::move(rules));
    return true;
}

void
armRules(std::vector<FailRule> rules)
{
    Registry& r = registry();
    MutexLock lock(r.mutex);
    r.bySite.clear();
    r.siteStats.clear();
    for (auto& rule : rules)
        r.bySite[rule.site].push_back(RuleState{std::move(rule), {}});
    detail::g_armed.store(r.bySite.empty() ? 0 : 1,
                          std::memory_order_relaxed);
}

void
disarm()
{
    armRules({});
}

std::optional<Err>
check(const char* site)
{
    if (!anyArmed())
        return std::nullopt;
    Registry& r = registry();
    MutexLock lock(r.mutex);
    const auto it = r.bySite.find(site);
    if (it == r.bySite.end())
        return std::nullopt;
    const uint64_t key = t_scopeKey;
    SiteStats& ss = r.siteStats[site];
    ++ss.hits;
    for (RuleState& rs : it->second) {
        const FailRule& rule = rs.rule;
        if (rule.key != kNoKey && rule.key != key)
            continue;
        KeyState& ks = rs.perKey[key];
        ++ks.hits;
        bool fires;
        if (rule.nth != 0)
            fires = ks.hits == rule.nth;
        else if (rule.rate >= 0.0)
            fires = rateFires(rule, key, ks.hits);
        else
            fires = true;
        if (!fires || ks.fires >= rule.count)
            continue;
        ++ks.fires;
        ++ss.fires;
        std::string detail = "injected fault (hit " +
                             std::to_string(ks.hits);
        if (key != kNoKey)
            detail += ", key " + std::to_string(key);
        detail += ")";
        return Err(rule.code, site, std::move(detail));
    }
    return std::nullopt;
}

KeyScope::KeyScope(uint64_t key) : prev_(t_scopeKey)
{
    t_scopeKey = key;
}

KeyScope::~KeyScope()
{
    t_scopeKey = prev_;
}

uint64_t
currentKey()
{
    return t_scopeKey;
}

SiteStats
stats(const std::string& site)
{
    Registry& r = registry();
    MutexLock lock(r.mutex);
    const auto it = r.siteStats.find(site);
    return it == r.siteStats.end() ? SiteStats{} : it->second;
}

} // namespace failpoints
} // namespace tagecon
