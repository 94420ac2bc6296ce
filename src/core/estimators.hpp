/**
 * @file
 * The stateless ConfidenceEstimators, attachable to any
 * GradedPredictor through EstimatedPredictor:
 *
 *  - IntrinsicEstimator ("sfc"/"self"): trusts the grade the host
 *    predictor derived from its own state — the paper's storage-free
 *    scheme on TAGE, |sum| >= theta self-confidence on neural
 *    predictors, Smith counter strength on bimodal. Zero storage.
 *  - BlindEstimator ("blind"): grades everything high confidence; the
 *    confidence-oblivious control row in comparisons.
 *
 * The storage-based JRS estimator ("jrs"/"jrsg"), the baseline the
 * paper's storage-free scheme is pitted against, is
 * JrsConfidenceEstimator in baseline/jrs_estimator.hpp.
 */

#ifndef TAGECON_CORE_ESTIMATORS_HPP
#define TAGECON_CORE_ESTIMATORS_HPP

#include "core/graded_predictor.hpp"

namespace tagecon {

/**
 * Pass-through estimator: the host's intrinsic (storage-free / self)
 * confidence is the grade. Only attachable to hosts with
 * hasIntrinsicConfidence() — the registry enforces that.
 */
class IntrinsicEstimator : public ConfidenceEstimator
{
  public:
    ConfidenceLevel
    grade(uint64_t /*pc*/, const Prediction& p) override
    {
        return p.confidence;
    }

    void
    onResolve(uint64_t /*pc*/, const Prediction& /*p*/,
              bool /*taken*/) override
    {
    }

    /** The host's 7-class breakdown stays valid under this grade. */
    bool preservesHostClasses() const override { return true; }

    std::string name() const override { return "sfc"; }

    /** The whole point: the grade costs no storage. */
    uint64_t storageBits() const override { return 0; }

    void reset() override {}
};

/** Grades every prediction high confidence (the blind control). */
class BlindEstimator : public ConfidenceEstimator
{
  public:
    ConfidenceLevel
    grade(uint64_t /*pc*/, const Prediction& /*p*/) override
    {
        return ConfidenceLevel::High;
    }

    void
    onResolve(uint64_t /*pc*/, const Prediction& /*p*/,
              bool /*taken*/) override
    {
    }

    std::string name() const override { return "blind"; }

    uint64_t storageBits() const override { return 0; }

    void reset() override {}
};

} // namespace tagecon

#endif // TAGECON_CORE_ESTIMATORS_HPP
