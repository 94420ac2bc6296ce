#include "baseline/bimodal_predictor.hpp"

#include "util/bit_utils.hpp"
#include "util/logging.hpp"

namespace tagecon {

BimodalPredictor::BimodalPredictor(int log_entries, int ctr_bits)
    : logEntries_(log_entries), ctrBits_(ctr_bits)
{
    TAGECON_ASSERT(log_entries >= 1 && log_entries <= 24,
                   "bimodal: bad table size");
    TAGECON_ASSERT(ctr_bits >= 1 && ctr_bits <= 8,
                   "bimodal: bad counter width");
    table_.resize(size_t{1} << log_entries);
    reset();
}

uint32_t
BimodalPredictor::indexFor(uint64_t pc) const
{
    return static_cast<uint32_t>(pc & maskBits(logEntries_));
}

Prediction
BimodalPredictor::predict(uint64_t pc)
{
    const uint8_t ctr = table_[indexFor(pc)];
    return binaryPrediction(packed::unsignedTaken(ctr, ctrBits_),
                            !packed::unsignedWeak(ctr, ctrBits_));
}

void
BimodalPredictor::update(uint64_t pc, const Prediction& /*p*/,
                         bool taken)
{
    uint8_t& ctr = table_[indexFor(pc)];
    ctr = static_cast<uint8_t>(packed::unsignedUpdate(ctr, ctrBits_, taken));
}

uint64_t
BimodalPredictor::storageBits() const
{
    return (uint64_t{1} << logEntries_) * static_cast<uint64_t>(ctrBits_);
}

void
BimodalPredictor::reset()
{
    // Every counter starts weakly taken.
    table_.assign(table_.size(),
                  static_cast<uint8_t>(1u << (ctrBits_ - 1)));
}

bool
BimodalPredictor::highConfidence(uint64_t pc) const
{
    return !packed::unsignedWeak(table_[indexFor(pc)], ctrBits_);
}

UnsignedSatCounter
BimodalPredictor::counterFor(uint64_t pc) const
{
    return UnsignedSatCounter(ctrBits_, table_[indexFor(pc)]);
}

bool
BimodalPredictor::snapshot(StateWriter& out, std::string& /*error*/) const
{
    out.u8(static_cast<uint8_t>(logEntries_));
    out.u8(static_cast<uint8_t>(ctrBits_));
    out.bytes(table_.data(), table_.size());
    return true;
}

bool
BimodalPredictor::restore(StateReader& in, std::string& error)
{
    if (in.u8() != static_cast<uint8_t>(logEntries_) ||
        in.u8() != static_cast<uint8_t>(ctrBits_)) {
        error = in.ok() ? "bimodal state was written with a different "
                          "geometry"
                        : "bimodal state is truncated";
        reset();
        return false;
    }
    if (!in.bytes(table_.data(), table_.size())) {
        error = "bimodal state is truncated";
        reset();
        return false;
    }
    return true;
}

} // namespace tagecon
