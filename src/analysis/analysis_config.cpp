#include "analysis/analysis_config.hpp"

#include <algorithm>
#include <set>

#include "analysis/observers.hpp"
#include "sim/spec_params.hpp"
#include "util/text.hpp"

namespace tagecon {

namespace {

/** A u64 parameter of an observer spec, within [1, @p max]. */
uint64_t
readCount(const SpecParams& p, const std::string& key, uint64_t def,
          int64_t max)
{
    return static_cast<uint64_t>(
        p.getInt(key, static_cast<int64_t>(def), 1, max));
}

/**
 * One selectable observer: its spec name, and how a spec token selects
 * it in the config and reads its parameters.
 */
struct ObserverKind {
    const char* name;
    void (*select)(const SpecParams& params, AnalysisConfig& out);
};

/** Every observer, sorted by name (the order listings print). */
const ObserverKind kObservers[] = {
    {"burst",
     [](const SpecParams& p, AnalysisConfig& out) {
         out.burst = true;
         out.burstMaxDistance =
             readCount(p, "max", out.burstMaxDistance, 1 << 20);
     }},
    {"histogram",
     [](const SpecParams&, AnalysisConfig& out) { out.histogram = true; }},
    {"intervals",
     [](const SpecParams& p, AnalysisConfig& out) {
         out.intervals = true;
         out.intervalLength =
             readCount(p, "len", out.intervalLength, int64_t{1} << 40);
     }},
    {"perbranch",
     [](const SpecParams& p, AnalysisConfig& out) {
         out.perBranch = true;
         out.perBranchTopN =
             readCount(p, "top", out.perBranchTopN, 1 << 20);
     }},
    {"warmup",
     [](const SpecParams& p, AnalysisConfig& out) {
         out.warmup = true;
         out.warmupIntervalLength = readCount(
             p, "len", out.warmupIntervalLength, int64_t{1} << 40);
         out.warmupThresholdMkp = static_cast<double>(
             readCount(p, "mkp",
                       static_cast<uint64_t>(out.warmupThresholdMkp),
                       1000));
     }},
};

const ObserverKind*
findObserver(const std::string& name)
{
    const auto it = std::find_if(
        std::begin(kObservers), std::end(kObservers),
        [&](const ObserverKind& kind) { return name == kind.name; });
    return it == std::end(kObservers) ? nullptr : it;
}

/** Split "name[:params]" and parse the parameter list. */
bool
splitObserverSpec(const std::string& item, std::string& name,
                  SpecParams& params, std::string& error)
{
    const std::string lowered = toLower(item);
    const size_t colon = lowered.find(':');
    name = lowered.substr(0, colon);
    if (name.empty()) {
        error = "malformed analysis spec '" + item + "': empty name";
        return false;
    }
    if (colon == std::string::npos)
        return true;
    const std::string param_text = lowered.substr(colon + 1);
    if (!SpecParams::parse(param_text, params, error)) {
        error = "analysis spec '" + item + "': " + error;
        return false;
    }
    return true;
}

/** Reject unread keys / malformed values after a spec was read. */
bool
checkConsumed(const std::string& item, const SpecParams& p,
              std::string& error)
{
    if (!p.error().empty()) {
        error = "analysis spec '" + item + "': " + p.error();
        return false;
    }
    const auto unknown = p.unrecognizedKeys();
    if (!unknown.empty()) {
        error = "analysis spec '" + item + "': unknown parameter '" +
                unknown.front() + "'";
        return false;
    }
    return true;
}

} // namespace

bool
parseAnalysisSpecs(const std::vector<std::string>& items,
                   AnalysisConfig& out, std::string& error)
{
    std::set<std::string> named;
    for (const auto& item : items) {
        std::string name;
        SpecParams params;
        if (!splitObserverSpec(item, name, params, error))
            return false;
        const ObserverKind* kind = findObserver(name);
        if (kind == nullptr) {
            error = "unknown analysis observer '" + name + "' (known: ";
            bool first = true;
            for (const auto& known : registeredRunObservers()) {
                error += (first ? "" : ", ") + known;
                first = false;
            }
            error += ")";
            return false;
        }
        if (!named.insert(name).second) {
            error = "analysis specs name more than one '" + name +
                    "' observer";
            return false;
        }
        kind->select(params, out);
        if (!checkConsumed(item, params, error))
            return false;
    }
    return true;
}

ObserverList
buildObservers(const AnalysisConfig& config)
{
    ObserverList observers;
    if (config.intervals)
        observers.push_back(
            std::make_unique<IntervalObserver>(config.intervalLength));
    if (config.histogram)
        observers.push_back(
            std::make_unique<ConfidenceHistogramObserver>());
    if (config.burst)
        observers.push_back(
            std::make_unique<BurstObserver>(config.burstMaxDistance));
    if (config.perBranch)
        observers.push_back(
            std::make_unique<PerBranchObserver>(config.perBranchTopN));
    if (config.warmup)
        observers.push_back(std::make_unique<WarmupObserver>(
            config.warmupIntervalLength, config.warmupThresholdMkp));
    return observers;
}

std::vector<std::string>
registeredRunObservers()
{
    std::vector<std::string> names;
    for (const auto& kind : kObservers)
        names.push_back(kind.name);
    return names;
}

} // namespace tagecon
