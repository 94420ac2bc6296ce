/**
 * @file
 * The adaptive saturation-probability controller of Sec. 6.2: vary the
 * probabilistic-saturation probability p in {1/1024 .. 1} by factors
 * of 2 to maximize high-confidence coverage while keeping the measured
 * misprediction rate of the high-confidence class under a target
 * (10 MKP in the paper).
 */

#ifndef TAGECON_CORE_ADAPTIVE_PROBABILITY_HPP
#define TAGECON_CORE_ADAPTIVE_PROBABILITY_HPP

#include <cstdint>
#include <string>

#include "core/prediction_class.hpp"
#include "util/state_io.hpp"

namespace tagecon {

/**
 * Epoch-based feedback controller. Feed it every resolved
 * high/medium/low graded prediction; at each epoch boundary it moves
 * log2(1/p) one step toward the target and reports the new value
 * through log2Prob() so the caller can push it into the predictor.
 */
class AdaptiveProbabilityController
{
  public:
    struct Config {
        /** Smallest log2(1/p); 0 means p = 1 (always saturate). */
        unsigned minLog2 = 0;

        /**
         * Largest log2(1/p); 10 means p = 1/1024. At most 15, the
         * predictor's own limit.
         */
        unsigned maxLog2 = 10;

        /** Starting log2(1/p); 7 means p = 1/128. */
        unsigned initialLog2 = 7;

        /** Target misprediction rate on the high class, in MKP. */
        double targetMkp = 10.0;

        /**
         * Hysteresis: only lower the selectivity (grow coverage) when
         * the measured rate is below target * relaxFraction.
         */
        double relaxFraction = 0.5;

        /** Predictions per adaptation epoch. */
        uint64_t epochLength = 65536;
    };

    /** Build with the paper's defaults (p0 = 1/128, target 10 MKP). */
    AdaptiveProbabilityController();

    explicit AdaptiveProbabilityController(Config cfg);

    /**
     * Record one resolved graded prediction. Returns true when this
     * call closed an epoch (log2Prob() may have changed).
     */
    bool record(ConfidenceLevel level, bool mispredicted);

    /** Current log2 of the inverse saturation probability. */
    unsigned log2Prob() const { return log2Prob_; }

    /** Controller configuration. */
    const Config& config() const { return cfg_; }

    /** Epochs completed so far. */
    uint64_t epochs() const { return epochs_; }

    /** High-class predictions in the current (open) epoch. */
    uint64_t epochHighPredictions() const { return highPred_; }

    /**
     * record() calls up to and including the one that closes the
     * current epoch; always in [1, epochLength].
     */
    uint64_t untilEpochEnd() const { return cfg_.epochLength - seen_; }

    /** Reset measurement state and return to the initial probability. */
    void reset();

    /** Serialize the dynamic state (config comes from construction). */
    void saveState(StateWriter& out) const;

    /**
     * Restore state written by saveState() on an identically-configured
     * controller. Returns false (leaving the controller reset()) when
     * the blob is truncated or carries a state saveState() never
     * writes: a probability outside [minLog2, maxLog2], or epoch
     * counts outside highMiss <= highPred <= seen < epochLength.
     */
    bool loadState(StateReader& in, std::string& error);

  private:
    void closeEpoch();

    Config cfg_;
    unsigned log2Prob_;
    uint64_t seen_ = 0;
    uint64_t highPred_ = 0;
    uint64_t highMiss_ = 0;
    uint64_t epochs_ = 0;
};

} // namespace tagecon

#endif // TAGECON_CORE_ADAPTIVE_PROBABILITY_HPP
