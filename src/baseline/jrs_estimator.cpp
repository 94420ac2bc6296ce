#include "baseline/jrs_estimator.hpp"

#include <algorithm>

#include "util/bit_utils.hpp"
#include "util/logging.hpp"
#include "util/saturating_counter.hpp"

namespace tagecon {

JrsConfidenceEstimator::JrsConfidenceEstimator()
    : JrsConfidenceEstimator(Config{})
{
}

JrsConfidenceEstimator::JrsConfidenceEstimator(Config cfg)
    : cfg_(cfg)
{
    TAGECON_ASSERT(cfg_.logEntries >= 1 && cfg_.logEntries <= 24,
                   "JRS: bad table size");
    TAGECON_ASSERT(cfg_.ctrBits >= 1 && cfg_.ctrBits <= 16,
                   "JRS: bad counter width");
    TAGECON_ASSERT(cfg_.threshold <= ((1u << cfg_.ctrBits) - 1),
                   "JRS: threshold exceeds counter range");
    TAGECON_ASSERT(cfg_.historyBits >= 1 && cfg_.historyBits <= 32,
                   "JRS: bad history length");
    table_.assign(size_t{1} << cfg_.logEntries, 0);
}

uint32_t
JrsConfidenceEstimator::indexFor(uint64_t pc, bool predicted_taken) const
{
    uint64_t idx = pc ^ (history_ & maskBits(cfg_.historyBits));
    if (cfg_.indexWithPrediction)
        idx = (idx << 1) | (predicted_taken ? 1 : 0);
    return static_cast<uint32_t>(idx & maskBits(cfg_.logEntries));
}

ConfidenceLevel
JrsConfidenceEstimator::grade(uint64_t pc, const Prediction& p)
{
    return table_[indexFor(pc, p.taken)] >= cfg_.threshold
               ? ConfidenceLevel::High
               : ConfidenceLevel::Low;
}

unsigned
JrsConfidenceEstimator::counterValue(uint64_t pc,
                                     bool predicted_taken) const
{
    return table_[indexFor(pc, predicted_taken)];
}

void
JrsConfidenceEstimator::onResolve(uint64_t pc, const Prediction& p,
                                  bool taken)
{
    uint16_t& ctr = table_[indexFor(pc, p.taken)];
    // Resetting counter: saturating increment when correct, zero on a
    // misprediction.
    ctr = p.taken == taken ? static_cast<uint16_t>(
                                 packed::unsignedInc(ctr, cfg_.ctrBits))
                           : uint16_t{0};
    history_ = (history_ << 1) | (taken ? 1 : 0);
}

std::string
JrsConfidenceEstimator::name() const
{
    return cfg_.indexWithPrediction ? "jrsg" : "jrs";
}

uint64_t
JrsConfidenceEstimator::storageBits() const
{
    return (uint64_t{1} << cfg_.logEntries) *
           static_cast<uint64_t>(cfg_.ctrBits);
}

void
JrsConfidenceEstimator::reset()
{
    table_.assign(table_.size(), 0);
    history_ = 0;
}

void
JrsConfidenceEstimator::saveState(StateWriter& out) const
{
    out.u8(static_cast<uint8_t>(cfg_.logEntries));
    out.u8(static_cast<uint8_t>(cfg_.ctrBits));
    out.u32(cfg_.threshold);
    out.u8(static_cast<uint8_t>(cfg_.historyBits));
    out.u8(cfg_.indexWithPrediction ? 1 : 0);
    out.u64(history_);
    out.u16s(table_.data(), table_.size());
}

bool
JrsConfidenceEstimator::loadState(StateReader& in, std::string& error)
{
    const bool geometry_ok =
        in.u8() == static_cast<uint8_t>(cfg_.logEntries) &&
        in.u8() == static_cast<uint8_t>(cfg_.ctrBits) &&
        in.u32() == cfg_.threshold &&
        in.u8() == static_cast<uint8_t>(cfg_.historyBits) &&
        in.u8() == (cfg_.indexWithPrediction ? 1 : 0);
    if (!in.ok() || !geometry_ok) {
        reset();
        error = in.ok() ? "JRS state was written with a different "
                          "geometry"
                        : "JRS state is truncated";
        return false;
    }
    history_ = in.u64();
    in.u16s(table_.data(), table_.size());
    // onResolve() saturates every counter at its width.
    const uint64_t ctr_max = maskBits(cfg_.ctrBits);
    if (!in.ok() || std::any_of(table_.begin(), table_.end(),
                                [&](uint16_t c) { return c > ctr_max; })) {
        reset();
        error = in.ok() ? "JRS state carries a counter wider than ctrBits"
                        : "JRS state is truncated";
        return false;
    }
    return true;
}

} // namespace tagecon
