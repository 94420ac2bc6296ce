/**
 * @file
 * BlindEstimator ("blind"), the stateless ConfidenceEstimator: it
 * grades everything high confidence, the confidence-oblivious control
 * row in comparisons, and adds no byte to its host's checkpoint.
 * Attach it to any GradedPredictor through EstimatedPredictor.
 *
 * "sfc"/"self" needs no estimator: a host with intrinsic confidence
 * (the paper's storage-free scheme on TAGE, |sum| >= theta
 * self-confidence on neural predictors, Smith counter strength on
 * bimodal) already grades its own predictions, so the registry hands
 * out the host itself. The storage-based JRS estimator ("jrs"/"jrsg"),
 * the baseline the paper's storage-free scheme is pitted against, is
 * JrsConfidenceEstimator in baseline/jrs_estimator.hpp.
 */

#ifndef TAGECON_CORE_ESTIMATORS_HPP
#define TAGECON_CORE_ESTIMATORS_HPP

#include "core/graded_predictor.hpp"

namespace tagecon {

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

    void saveState(StateWriter& /*out*/) const override {}

    bool
    loadState(StateReader& /*in*/, std::string& /*error*/) override
    {
        return true;
    }
};

} // namespace tagecon

#endif // TAGECON_CORE_ESTIMATORS_HPP
