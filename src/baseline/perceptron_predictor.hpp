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

#include "util/state_io.hpp"

namespace tagecon {

/** Global-history perceptron predictor with self-confidence. */
class PerceptronPredictor
{
  public:
    /**
     * @param log_perceptrons log2 of the number of perceptrons.
     * @param history_bits Global history length (weights per
     *        perceptron, excluding the bias weight).
     */
    PerceptronPredictor(int log_perceptrons, int history_bits);

    bool predict(uint64_t pc);
    void update(uint64_t pc, bool taken);
    uint64_t storageBits() const;

    /**
     * Self-confidence of the last predict(): high when |sum| is above
     * the training threshold theta.
     */
    bool lastHighConfidence() const { return lastAbsSum_ >= theta_; }

    /** Output sum of the last predict() (introspection). */
    int lastSum() const { return lastSum_; }

    /** Training threshold theta = floor(1.93 * h + 14). */
    int theta() const { return theta_; }

    /**
     * Serialize the architectural state (weight arena + history)
     * behind a geometry fingerprint. The last-sum introspection values
     * are predict-transient and not part of the state.
     */
    void saveState(StateWriter& out) const;

    /**
     * Restore state written by saveState(). Returns false with the
     * reason in @p error (leaving the predictor untouched) on
     * truncation or geometry mismatch.
     */
    bool loadState(StateReader& in, std::string& error);

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
