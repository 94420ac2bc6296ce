/**
 * @file
 * The binary confidence-estimator quality metrics of Grunwald et al.
 * (ISCA 1998), recalled in Sec. 2.2 / Sec. 4 of the paper: SENS, PVP,
 * SPEC and PVN. They apply to any estimator that splits predictions
 * into high-confidence vs. low-confidence; the comparison benches use
 * them to pit the storage-free estimator against the JRS baseline.
 * Every producer grades a prediction's level as confidenceLevel(cls),
 * so fromClassStats() derives the confusion exactly from a ClassStats.
 */

#ifndef TAGECON_CORE_BINARY_METRICS_HPP
#define TAGECON_CORE_BINARY_METRICS_HPP

#include <cstdint>

#include "core/class_stats.hpp"

namespace tagecon {

/**
 * 2x2 confusion accumulator between (high/low confidence) and
 * (correct/incorrect prediction).
 */
class BinaryConfidenceMetrics
{
  public:
    /**
     * The confusion of the predictions counted in @p stats: high is
     * ConfidenceLevel::High, low is Medium and Low together.
     */
    static BinaryConfidenceMetrics
    fromClassStats(const ClassStats& stats)
    {
        BinaryConfidenceMetrics m;
        m.highWrong_ = stats.mispredictions(ConfidenceLevel::High);
        m.highCorrect_ =
            stats.predictions(ConfidenceLevel::High) - m.highWrong_;
        m.lowWrong_ = stats.totalMispredictions() - m.highWrong_;
        m.lowCorrect_ = stats.totalPredictions() - m.highCorrect_ -
                        m.highWrong_ - m.lowWrong_;
        return m;
    }

    /** Record one resolved prediction with its binary confidence. */
    void
    record(bool high_confidence, bool correct)
    {
        if (high_confidence) {
            if (correct)
                ++highCorrect_;
            else
                ++highWrong_;
        } else {
            if (correct)
                ++lowCorrect_;
            else
                ++lowWrong_;
        }
    }

    /** Merge another accumulator into this one. */
    void
    merge(const BinaryConfidenceMetrics& o)
    {
        highCorrect_ += o.highCorrect_;
        highWrong_ += o.highWrong_;
        lowCorrect_ += o.lowCorrect_;
        lowWrong_ += o.lowWrong_;
    }

    /** Sensitivity: fraction of correct predictions graded high. */
    double
    sens() const
    {
        return ratio(highCorrect_, highCorrect_ + lowCorrect_);
    }

    /** Predictive value of a positive test: P(correct | high). */
    double
    pvp() const
    {
        return ratio(highCorrect_, highCorrect_ + highWrong_);
    }

    /** Specificity: fraction of incorrect predictions graded low. */
    double
    spec() const
    {
        return ratio(lowWrong_, lowWrong_ + highWrong_);
    }

    /** Predictive value of a negative test: P(incorrect | low). */
    double
    pvn() const
    {
        return ratio(lowWrong_, lowWrong_ + lowCorrect_);
    }

    /** Fraction of all predictions graded high confidence. */
    double
    highCoverage() const
    {
        return ratio(highCorrect_ + highWrong_, total());
    }

    /** Total recorded predictions. */
    uint64_t
    total() const
    {
        return highCorrect_ + highWrong_ + lowCorrect_ + lowWrong_;
    }

    uint64_t highCorrect() const { return highCorrect_; }
    uint64_t highWrong() const { return highWrong_; }
    uint64_t lowCorrect() const { return lowCorrect_; }
    uint64_t lowWrong() const { return lowWrong_; }

  private:
    static double
    ratio(uint64_t num, uint64_t den)
    {
        return den == 0 ? 0.0
                        : static_cast<double>(num) /
                              static_cast<double>(den);
    }

    uint64_t highCorrect_ = 0;
    uint64_t highWrong_ = 0;
    uint64_t lowCorrect_ = 0;
    uint64_t lowWrong_ = 0;
};

} // namespace tagecon

#endif // TAGECON_CORE_BINARY_METRICS_HPP
