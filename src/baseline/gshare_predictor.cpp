#include "baseline/gshare_predictor.hpp"

#include "util/bit_utils.hpp"
#include "util/logging.hpp"
#include "util/saturating_counter.hpp"

namespace tagecon {

GsharePredictor::GsharePredictor(int log_entries, int history_bits,
                                 int ctr_bits)
    : logEntries_(log_entries), historyBits_(history_bits),
      ctrBits_(ctr_bits)
{
    TAGECON_ASSERT(log_entries >= 1 && log_entries <= 24,
                   "gshare: bad table size");
    TAGECON_ASSERT(history_bits >= 1, "gshare: bad history length");
    TAGECON_ASSERT(ctr_bits >= 1 && ctr_bits <= 8,
                   "gshare: bad counter width");
    table_.resize(size_t{1} << log_entries);
    reset();
}

uint32_t
GsharePredictor::indexFor(uint64_t pc) const
{
    // Histories longer than the index are folded in log_entries-bit
    // chunks; for history_bits <= log_entries this is the plain XOR.
    const uint64_t folded =
        xorFold(history_ & maskBits(historyBits_), logEntries_);
    return static_cast<uint32_t>((pc ^ folded) & maskBits(logEntries_));
}

Prediction
GsharePredictor::predict(uint64_t pc)
{
    return binaryPrediction(
        packed::unsignedTaken(table_[indexFor(pc)], ctrBits_),
        /*high=*/true);
}

void
GsharePredictor::update(uint64_t pc, const Prediction& /*p*/, bool taken)
{
    uint8_t& ctr = table_[indexFor(pc)];
    ctr = static_cast<uint8_t>(packed::unsignedUpdate(ctr, ctrBits_, taken));
    history_ = ((history_ << 1) | (taken ? 1 : 0)) &
               maskBits(historyBits_);
}

uint64_t
GsharePredictor::storageBits() const
{
    return (uint64_t{1} << logEntries_) * static_cast<uint64_t>(ctrBits_);
}

void
GsharePredictor::reset()
{
    // Every counter starts weakly taken, with an all-not-taken history.
    table_.assign(table_.size(),
                  static_cast<uint8_t>(1u << (ctrBits_ - 1)));
    history_ = 0;
}

bool
GsharePredictor::snapshot(StateWriter& out, std::string& /*error*/) const
{
    out.u8(static_cast<uint8_t>(logEntries_));
    out.u32(static_cast<uint32_t>(historyBits_));
    out.u8(static_cast<uint8_t>(ctrBits_));
    out.u64(history_);
    out.bytes(table_.data(), table_.size());
    return true;
}

bool
GsharePredictor::restore(StateReader& in, std::string& error)
{
    if (in.u8() != static_cast<uint8_t>(logEntries_) ||
        in.u32() != static_cast<uint32_t>(historyBits_) ||
        in.u8() != static_cast<uint8_t>(ctrBits_)) {
        error = in.ok() ? "gshare state was written with a different "
                          "geometry"
                        : "gshare state is truncated";
        reset();
        return false;
    }
    history_ = in.u64() & maskBits(historyBits_);
    if (!in.bytes(table_.data(), table_.size())) {
        error = "gshare state is truncated";
        reset();
        return false;
    }
    return true;
}

} // namespace tagecon
