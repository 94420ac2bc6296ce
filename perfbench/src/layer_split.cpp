#include "layer_split.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <ostream>

#include "sim/report.hpp" // jsonEscape

namespace perfbench {

using tagecon::obs::SpanEvent;

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return (values[mid - 1] + values[mid]) / 2.0;
}

double
perKiloBranch(double count, double branches)
{
    return branches == 0.0 ? 0.0 : 1000.0 * count / branches;
}

double
share(double part, double whole)
{
    return whole == 0.0 ? 0.0 : part / whole;
}

std::string
layerOf(const char* name)
{
    const char* dot = std::strchr(name, '.');
    return dot == nullptr ? std::string(name) : std::string(name, dot);
}

std::vector<uint64_t>
selfTimes(const std::vector<SpanEvent>& events)
{
    // Per thread, in start order with enclosing spans first: a stack
    // of open spans gives each span its direct parent.
    std::vector<size_t> order(events.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const SpanEvent& x = events[a];
        const SpanEvent& y = events[b];
        if (x.tid != y.tid)
            return x.tid < y.tid;
        if (x.startNs != y.startNs)
            return x.startNs < y.startNs;
        return x.endNs > y.endNs;
    });

    std::vector<uint64_t> self(events.size());
    for (size_t i = 0; i < events.size(); ++i)
        self[i] = events[i].endNs - events[i].startNs;
    std::vector<size_t> open;
    for (const size_t i : order) {
        const SpanEvent& e = events[i];
        while (!open.empty() &&
               (events[open.back()].tid != e.tid ||
                events[open.back()].endNs <= e.startNs))
            open.pop_back();
        if (!open.empty())
            self[open.back()] -= e.endNs - e.startNs;
        open.push_back(i);
    }
    return self;
}

SpanTotals
LayerSplit::name(const std::string& n) const
{
    const auto it = byName.find(n);
    return it == byName.end() ? SpanTotals{} : it->second;
}

uint64_t
LayerSplit::layer(const std::string& l) const
{
    const auto it = selfByLayer.find(l);
    return it == selfByLayer.end() ? 0 : it->second;
}

uint64_t
LayerSplit::selfSum() const
{
    uint64_t sum = 0;
    for (const auto& [layer, ns] : selfByLayer)
        sum += ns;
    return sum;
}

LayerSplit
splitLayers(const std::vector<SpanEvent>& events)
{
    LayerSplit out;
    const std::vector<uint64_t> self = selfTimes(events);
    for (size_t i = 0; i < events.size(); ++i) {
        const SpanEvent& e = events[i];
        SpanTotals& t = out.byName[e.name];
        ++t.calls;
        t.totalNs += e.endNs - e.startNs;
        out.selfByLayer[layerOf(e.name)] += self[i];
    }
    return out;
}

void
writeChromeJson(const std::vector<SpanEvent>& events, std::ostream& os)
{
    uint64_t t0 = UINT64_MAX;
    for (const auto& e : events)
        t0 = std::min(t0, e.startNs);
    // Microseconds with the nanoseconds kept in the fraction.
    auto micros = [](uint64_t ns) {
        const std::string frac = std::to_string(1000 + ns % 1000);
        return std::to_string(ns / 1000) + "." + frac.substr(1);
    };
    os << "{\"traceEvents\":[";
    for (size_t i = 0; i < events.size(); ++i) {
        const SpanEvent& e = events[i];
        os << (i == 0 ? "\n" : ",\n") << "{\"name\":\""
           << tagecon::jsonEscape(e.name) << "\",\"cat\":\""
           << tagecon::jsonEscape(layerOf(e.name))
           << "\",\"ph\":\"X\",\"ts\":" << micros(e.startNs - t0)
           << ",\"dur\":" << micros(e.endNs - e.startNs)
           << ",\"pid\":1,\"tid\":" << e.tid << ",\"args\":{\"id\":" << e.id
           << "}}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace perfbench
