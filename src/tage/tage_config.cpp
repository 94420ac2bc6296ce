#include "tage/tage_config.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace tagecon {

Err
TageConfig::checkHistorySpan(int min_hist, int max_hist, int n)
{
    if (max_hist >= min_hist + n - 1)
        return {};
    return Err(ErrCode::BadSpec, "tage.config",
               "maxhist " + std::to_string(max_hist) + " too short for " +
                   std::to_string(n) +
                   " history lengths starting at minhist " +
                   std::to_string(min_hist));
}

std::vector<int>
TageConfig::geometricHistories(int min_hist, int max_hist, int n)
{
    TAGECON_ASSERT(n >= 1, "need at least one tagged table");
    TAGECON_ASSERT(min_hist >= 1 && max_hist >= min_hist,
                   "bad history bounds");
    const Err span = checkHistorySpan(min_hist, max_hist, n);
    TAGECON_ASSERT(span.ok(), span.detail);
    std::vector<int> lengths(static_cast<size_t>(n));
    if (n == 1) {
        lengths[0] = max_hist;
        return lengths;
    }
    const double ratio =
        std::pow(static_cast<double>(max_hist) / min_hist,
                 1.0 / static_cast<double>(n - 1));
    double l = min_hist;
    int prev = 0;
    for (int i = 0; i < n; ++i) {
        int li = static_cast<int>(l + 0.5);
        // Keep the series strictly increasing even after rounding.
        li = std::max(li, prev + 1);
        lengths[static_cast<size_t>(i)] = li;
        prev = li;
        l *= ratio;
    }
    lengths.back() = max_hist;
    return lengths;
}

TageConfig
TageConfig::fromGeometry(std::string name, const TageGeometry& g)
{
    TageConfig cfg;
    cfg.name = std::move(name);
    cfg.logBimodalEntries = g.logBimodalEntries;
    const auto lengths = TageConfig::geometricHistories(
        g.minHistory, g.maxHistory, g.numTables);
    cfg.tagged.reserve(static_cast<size_t>(g.numTables));
    for (int i = 0; i < g.numTables; ++i) {
        cfg.tagged.push_back(TageTableConfig{
            g.logEntries, g.tagBits, lengths[static_cast<size_t>(i)]});
    }
    return cfg;
}

TageGeometry
TageConfig::geometry16K()
{
    // 1024x2b bimodal + 4 x 256 x (8b tag + 3b ctr + 2b u) = 15.0 Kbit.
    return TageGeometry{10, 4, 8, 8, 3, 80};
}

TageGeometry
TageConfig::geometry64K()
{
    // 4096x2b bimodal + 7 x 512 x (10+3+2) = 60.5 Kbit.
    return TageGeometry{12, 7, 9, 10, 5, 130};
}

TageGeometry
TageConfig::geometry256K()
{
    // 4096x2b bimodal + 8 x 2048 x (10+3+2) = 248 Kbit.
    return TageGeometry{12, 8, 11, 10, 5, 300};
}

TageConfig
TageConfig::small16K()
{
    return fromGeometry("16K", geometry16K());
}

TageConfig
TageConfig::medium64K()
{
    return fromGeometry("64K", geometry64K());
}

TageConfig
TageConfig::large256K()
{
    return fromGeometry("256K", geometry256K());
}

std::vector<TageConfig>
TageConfig::paperConfigs()
{
    return {small16K(), medium64K(), large256K()};
}

uint64_t
TageConfig::storageBits() const
{
    uint64_t bits = (uint64_t{1} << logBimodalEntries) *
                    static_cast<uint64_t>(bimodalCtrBits);
    for (const auto& t : tagged) {
        bits += (uint64_t{1} << t.logEntries) *
                static_cast<uint64_t>(t.tagBits + taggedCtrBits +
                                      usefulBits);
    }
    return bits;
}

int
TageConfig::maxHistoryLength() const
{
    int m = 0;
    for (const auto& t : tagged)
        m = std::max(m, t.historyLength);
    return m;
}

bool
TageConfig::sameLookupGeometry(const TageConfig& other) const
{
    return logBimodalEntries == other.logBimodalEntries &&
           tagged == other.tagged &&
           pathHistoryBits == other.pathHistoryBits &&
           instShift == other.instShift;
}

Err
TageConfig::validate() const
{
    const auto bad = [](std::string detail) {
        return Err(ErrCode::BadSpec, "tage.config", std::move(detail));
    };
    if (tagged.empty())
        return bad("needs at least one tagged table");
    if (tagged.size() > static_cast<size_t>(kMaxTaggedTables))
        return bad("too many tagged tables");
    if (logBimodalEntries < 1 || logBimodalEntries > 24)
        return bad("bad bimodal size");
    if (bimodalCtrBits < 1 || bimodalCtrBits > 8)
        return bad("bad bimodal counter width");
    if (taggedCtrBits < 2 || taggedCtrBits > 8)
        return bad("bad tagged counter width");
    if (usefulBits < 1 || usefulBits > 8)
        return bad("bad useful counter width");
    // The tagged arena packs ctr and u into one byte.
    if (taggedCtrBits + usefulBits > 8)
        return bad("ctr=" + std::to_string(taggedCtrBits) + " and ubits=" +
                   std::to_string(usefulBits) +
                   " do not pack into one byte (ctr + ubits must be <= 8)");
    if (pathHistoryBits < 1 || pathHistoryBits > 32)
        return bad("bad path history width");
    if (satLog2Prob > 15)
        return bad("satLog2Prob too large");
    int prev = 0;
    for (const auto& t : tagged) {
        if (t.logEntries < 1 || t.logEntries > 24)
            return bad("bad tagged table size");
        if (t.tagBits < 2 || t.tagBits > 16)
            return bad("bad tag width");
        if (t.historyLength <= prev)
            return bad("history lengths must strictly increase");
        prev = t.historyLength;
    }
    return {};
}

TageConfig
TageConfig::withProbabilisticSaturation(unsigned log2_prob) const
{
    TageConfig cfg = *this;
    cfg.probabilisticSaturation = true;
    cfg.satLog2Prob = log2_prob;
    return cfg;
}

} // namespace tagecon
