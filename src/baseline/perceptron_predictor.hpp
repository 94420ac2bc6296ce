/**
 * @file
 * The perceptron branch predictor (Jimenez & Lin, HPCA 2001) with its
 * natural self-confidence estimate: a prediction is high confidence
 * when |output sum| exceeds the training threshold (Sec. 2.2 cites
 * this as the storage-free confidence scheme for neural predictors;
 * the same idea was used for O-GEHL).
 */

#ifndef TAGECON_BASELINE_PERCEPTRON_PREDICTOR_HPP
#define TAGECON_BASELINE_PERCEPTRON_PREDICTOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/graded_predictor.hpp"

namespace tagecon {

/**
 * Global-history perceptron predictor, graded with its |sum| >= theta
 * self-confidence.
 */
class PerceptronPredictor final : public GradedPredictor
{
  public:
    /**
     * @param log_perceptrons log2 of the number of perceptrons.
     * @param history_bits Global history length (weights per
     *        perceptron, excluding the bias weight).
     * The defaults match the bench geometry comparable to 64Kbit.
     */
    explicit PerceptronPredictor(int log_perceptrons = 9,
                                 int history_bits = 32);

    Prediction predict(uint64_t pc) override;
    void update(uint64_t pc, const Prediction& p, bool taken) override;
    uint64_t storageBits() const override;
    void reset() override;
    bool hasIntrinsicConfidence() const override { return true; }

    /**
     * Serialize the architectural state (weight arena + history)
     * behind a geometry fingerprint. The last-sum introspection values
     * are predict-transient and not part of the state.
     */
    bool snapshot(StateWriter& out, std::string& error) const override;
    bool restore(StateReader& in, std::string& error) override;

    /**
     * Self-confidence of the last predict(): high when |sum| is above
     * the training threshold theta.
     */
    bool lastHighConfidence() const { return lastAbsSum_ >= theta_; }

    /** Output sum of the last predict() (introspection). */
    int lastSum() const { return lastSum_; }

    /** Training threshold theta = floor(1.93 * h + 14). */
    int theta() const { return theta_; }

  protected:
    std::string defaultName() const override { return "perceptron"; }

  private:
    uint32_t indexFor(uint64_t pc) const;
    int computeSum(uint64_t pc) const;

    /**
     * Flat weight arena: perceptron p owns the (historyBits_ + 1)
     * int8 weights starting at p * stride, bias first. One byte per
     * weight via the packed::signedUpdate transition at 8 bits —
     * identical saturation behavior to the classic clamp.
     */
    std::vector<int8_t> weights_;
    uint64_t history_ = 0;
    int logPerceptrons_;
    int historyBits_;
    int theta_;
    int lastSum_ = 0;
    int lastAbsSum_ = 0;
};

} // namespace tagecon

#endif // TAGECON_BASELINE_PERCEPTRON_PREDICTOR_HPP
