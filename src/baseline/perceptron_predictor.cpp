#include "baseline/perceptron_predictor.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/bit_utils.hpp"
#include "util/logging.hpp"
#include "util/saturating_counter.hpp"

namespace tagecon {

PerceptronPredictor::PerceptronPredictor(int log_perceptrons,
                                         int history_bits)
    : logPerceptrons_(log_perceptrons), historyBits_(history_bits),
      theta_(static_cast<int>(1.93 * history_bits + 14))
{
    TAGECON_ASSERT(log_perceptrons >= 1 && log_perceptrons <= 20,
                   "perceptron: bad table size");
    TAGECON_ASSERT(history_bits >= 1 && history_bits <= 64,
                   "perceptron: bad history length");
    weights_.resize((size_t{1} << log_perceptrons) *
                    (static_cast<size_t>(history_bits) + 1));
    reset();
}

uint32_t
PerceptronPredictor::indexFor(uint64_t pc) const
{
    return static_cast<uint32_t>(xorFold(pc, logPerceptrons_) &
                                 maskBits(logPerceptrons_));
}

int
PerceptronPredictor::computeSum(uint64_t pc) const
{
    const size_t stride = static_cast<size_t>(historyBits_) + 1;
    const int8_t* w = weights_.data() + indexFor(pc) * stride;
    int sum = w[0]; // bias weight: input is the constant 1
    for (int i = 0; i < historyBits_; ++i) {
        const bool bit = ((history_ >> i) & 1) != 0;
        sum += bit ? w[i + 1] : -w[i + 1];
    }
    return sum;
}

Prediction
PerceptronPredictor::predict(uint64_t pc)
{
    lastSum_ = computeSum(pc);
    lastAbsSum_ = std::abs(lastSum_);
    return binaryPrediction(lastSum_ >= 0, lastHighConfidence());
}

void
PerceptronPredictor::update(uint64_t pc, const Prediction& /*p*/,
                            bool taken)
{
    const int sum = computeSum(pc);
    const bool predicted = sum >= 0;

    // Train on a misprediction or when the output is not confident.
    if (predicted != taken || std::abs(sum) <= theta_) {
        const size_t stride = static_cast<size_t>(historyBits_) + 1;
        int8_t* w = weights_.data() + indexFor(pc) * stride;
        // Each weight moves one step toward agreement between the
        // outcome and its input; signedUpdate at 8 bits saturates at
        // the same [-128, 127] rails as the classic clamp.
        auto bump = [taken](int8_t& weight, bool input_taken) {
            weight = static_cast<int8_t>(
                packed::signedUpdate(weight, 8, taken == input_taken));
        };
        bump(w[0], true);
        for (int i = 0; i < historyBits_; ++i)
            bump(w[i + 1], ((history_ >> i) & 1) != 0);
    }

    history_ = (history_ << 1) | (taken ? 1 : 0);
}

uint64_t
PerceptronPredictor::storageBits() const
{
    // 8-bit weights, (h + 1) weights per perceptron.
    return (uint64_t{1} << logPerceptrons_) *
           static_cast<uint64_t>(historyBits_ + 1) * 8;
}

void
PerceptronPredictor::reset()
{
    std::fill(weights_.begin(), weights_.end(), int8_t{0});
    history_ = 0;
    lastSum_ = 0;
    lastAbsSum_ = 0;
}

bool
PerceptronPredictor::snapshot(StateWriter& out,
                              std::string& /*error*/) const
{
    out.u8(static_cast<uint8_t>(logPerceptrons_));
    out.u8(static_cast<uint8_t>(historyBits_));
    out.bytes(reinterpret_cast<const uint8_t*>(weights_.data()),
              weights_.size());
    out.u64(history_);
    return true;
}

bool
PerceptronPredictor::restore(StateReader& in, std::string& error)
{
    const bool geometry_ok =
        in.u8() == static_cast<uint8_t>(logPerceptrons_) &&
        in.u8() == static_cast<uint8_t>(historyBits_);
    if (!in.ok() || !geometry_ok) {
        error = in.ok() ? "perceptron state was written by a predictor "
                          "with a different geometry"
                        : "perceptron state is truncated";
        reset();
        return false;
    }
    in.bytes(reinterpret_cast<uint8_t*>(weights_.data()),
             weights_.size());
    history_ = in.u64();
    lastSum_ = 0;
    lastAbsSum_ = 0;
    if (!in.ok()) {
        error = "perceptron state is truncated";
        reset();
        return false;
    }
    return true;
}

} // namespace tagecon
