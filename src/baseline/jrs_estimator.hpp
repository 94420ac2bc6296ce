/**
 * @file
 * The JRS confidence estimator (Jacobsen, Rotenberg & Smith, MICRO
 * 1996) and Grunwald et al.'s prediction-indexed refinement (ISCA
 * 1998) — the storage-based estimators the paper's storage-free scheme
 * is contrasted with (Sec. 2.2).
 *
 * A gshare-indexed table of resetting counters: incremented on a
 * correct prediction, reset to zero on a misprediction. A prediction
 * is high confidence when its counter is at or above a threshold
 * (4-bit counters with threshold 15 in the classic configuration).
 */

#ifndef TAGECON_BASELINE_JRS_ESTIMATOR_HPP
#define TAGECON_BASELINE_JRS_ESTIMATOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/graded_predictor.hpp"

namespace tagecon {

/**
 * Storage-based confidence estimator attachable to any
 * GradedPredictor through EstimatedPredictor (the "jrs" / "jrsg"
 * registry tokens). It keeps its own global-history register, so it
 * is host-agnostic.
 */
class JrsConfidenceEstimator final : public ConfidenceEstimator
{
  public:
    struct Config {
        /** log2 of the counter table size. */
        int logEntries = 12;

        /** Counter width; 4 bits in the classic configuration. */
        int ctrBits = 4;

        /** High confidence iff counter >= threshold (15 classically). */
        unsigned threshold = 15;

        /** Global history bits XORed into the index. */
        int historyBits = 12;

        /**
         * Grunwald et al. refinement: include the predicted direction
         * in the table index, so taken/not-taken predictions of the
         * same (PC, history) get separate confidence.
         */
        bool indexWithPrediction = false;
    };

    /** Build with the classic 4-bit / threshold-15 configuration. */
    JrsConfidenceEstimator();

    explicit JrsConfidenceEstimator(Config cfg);

    /**
     * High iff the counter for the branch at @p pc, the current
     * history and the predicted direction p.taken is at threshold.
     */
    ConfidenceLevel grade(uint64_t pc, const Prediction& p) override;

    /**
     * Train with the resolved branch: increment on a correct
     * prediction, reset on a misprediction, then advance the history.
     */
    void onResolve(uint64_t pc, const Prediction& p, bool taken) override;

    /** "jrsg" for the prediction-indexed variant, "jrs" otherwise. */
    std::string name() const override;

    uint64_t storageBits() const override;

    /** Zero every counter and the history. */
    void reset() override;

    /** The configuration as a fingerprint, the history, the counters. */
    void saveState(StateWriter& out) const override;
    bool loadState(StateReader& in, std::string& error) override;

    /** Raw counter value grade() consults (tests / introspection). */
    unsigned counterValue(uint64_t pc, bool predicted_taken) const;

    /** The configuration in use. */
    const Config& config() const { return cfg_; }

  private:
    uint32_t indexFor(uint64_t pc, bool predicted_taken) const;

    Config cfg_;

    /** Packed resetting counters (width in cfg_.ctrBits, up to 16). */
    std::vector<uint16_t> table_;
    uint64_t history_ = 0;
};

} // namespace tagecon

#endif // TAGECON_BASELINE_JRS_ESTIMATOR_HPP
