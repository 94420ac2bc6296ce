#include "trace/behavior.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace tagecon {

BranchBehavior
BranchBehavior::always(bool taken)
{
    BranchBehavior b(BehaviorKind::Always);
    b.flag_ = taken;
    return b;
}

BranchBehavior
BranchBehavior::loop(uint32_t period, double trip_jitter)
{
    TAGECON_ASSERT(period >= 1, "loop period must be >= 1");
    BranchBehavior b(BehaviorKind::Loop);
    b.loop_.period = period;
    b.loop_.curPeriod = period;
    b.p_ = std::clamp(trip_jitter, 0.0, 1.0);
    return b;
}

BranchBehavior
BranchBehavior::pattern(const std::vector<bool>& pattern)
{
    TAGECON_ASSERT(pattern.size() <= kMaxPatternLen, "pattern too long");
    uint64_t outcomes = 0;
    for (size_t i = 0; i < pattern.size(); ++i)
        outcomes |= uint64_t{pattern[i]} << i;
    return BranchBehavior::pattern(outcomes,
                                   static_cast<uint32_t>(pattern.size()));
}

BranchBehavior
BranchBehavior::pattern(uint64_t outcomes, uint32_t len)
{
    TAGECON_ASSERT(len >= 1, "pattern must be non-empty");
    TAGECON_ASSERT(len <= kMaxPatternLen, "pattern too long");
    BranchBehavior b(BehaviorKind::Pattern);
    b.outcomes_ = outcomes;
    b.count_ = static_cast<uint8_t>(len);
    return b;
}

BranchBehavior
BranchBehavior::biased(double p_taken)
{
    BranchBehavior b(BehaviorKind::Biased);
    b.p_ = std::clamp(p_taken, 0.0, 1.0);
    return b;
}

BranchBehavior
BranchBehavior::markov(double p_stay_taken, double p_stay_not_taken)
{
    BranchBehavior b(BehaviorKind::Markov);
    b.p_ = std::clamp(p_stay_taken, 0.0, 1.0);
    b.q_ = std::clamp(p_stay_not_taken, 0.0, 1.0);
    return b;
}

BranchBehavior
BranchBehavior::correlated(std::span<const uint16_t> taps, bool invert,
                           double noise)
{
    TAGECON_ASSERT(!taps.empty(), "correlated branch needs taps");
    TAGECON_ASSERT(taps.size() <= kMaxTaps, "too many correlation taps");
    BranchBehavior b(BehaviorKind::Correlated);
    for (size_t i = 0; i < kMaxTaps; ++i) {
        TAGECON_ASSERT(i >= taps.size() || taps[i] >= 1,
                       "correlation tap must look at the past");
        b.taps_[i] = i < taps.size() ? taps[i] : 0;
    }
    b.count_ = static_cast<uint8_t>(taps.size());
    b.flag_ = invert;
    b.p_ = std::clamp(noise, 0.0, 1.0);
    return b;
}

uint16_t
BranchBehavior::maxHistoryTap() const
{
    if (kind_ != BehaviorKind::Correlated)
        return 0;
    return *std::max_element(taps_, taps_ + count_);
}

} // namespace tagecon
