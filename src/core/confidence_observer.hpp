/**
 * @file
 * The storage-free confidence estimator — the paper's contribution.
 *
 * Classification needs nothing but the TagePrediction the predictor
 * already produced, plus an 'age since the last bimodal-provided
 * misprediction' micro-counter (a handful of bits of state, no table):
 *
 *  - tagged provider: class by counter strength |2*ctr+1|
 *      1 -> Wtag, 3 -> NWtag, saturated -> Stag, otherwise NStag
 *    (for the 3-bit counters of the paper this is exactly 1/3/5/7);
 *  - bimodal provider: weak counter -> low-conf-bim; within the
 *    post-misprediction burst window -> medium-conf-bim (warming /
 *    capacity bursts, Sec. 5.1.2); otherwise high-conf-bim.
 */

#ifndef TAGECON_CORE_CONFIDENCE_OBSERVER_HPP
#define TAGECON_CORE_CONFIDENCE_OBSERVER_HPP

#include <cstdint>

#include "core/prediction_class.hpp"
#include "tage/tage_prediction.hpp"

namespace tagecon {

/**
 * Grades TAGE predictions into the paper's 7 classes. Call classify()
 * at prediction time, then onResolve() once the branch outcome is
 * known (the burst window tracking needs it).
 */
class ConfidenceObserver
{
  public:
    /**
     * @param bim_window Number of BIM-provided predictions after a
     *        BIM-provided misprediction that are graded
     *        medium-conf-bim; the paper uses "up to 8 branches".
     */
    explicit ConfidenceObserver(int bim_window = 8)
        : window_(bim_window),
          sinceBimMiss_(bim_window) // start outside the burst window
    {
    }

    /** Grade a prediction using only the predictor's outputs. */
    PredictionClass
    classify(const TagePrediction& p) const
    {
        if (p.providerIsTagged) {
            if (p.providerSaturated)
                return PredictionClass::Stag;
            if (p.providerStrength == 1)
                return PredictionClass::Wtag;
            if (p.providerStrength == 3)
                return PredictionClass::NWtag;
            return PredictionClass::NStag;
        }
        if (p.bimodalWeak)
            return PredictionClass::LowConfBim;
        if (sinceBimMiss_ < window_)
            return PredictionClass::MediumConfBim;
        return PredictionClass::HighConfBim;
    }

    /** Grade and map to the 3-level split of Sec. 6.1. */
    ConfidenceLevel
    classifyLevel(const TagePrediction& p) const
    {
        return confidenceLevel(classify(p));
    }

    /**
     * Observe the resolved outcome; advances the BIM burst window.
     * Must be called once per classified prediction, in order.
     */
    void
    onResolve(const TagePrediction& p, bool taken)
    {
        if (p.providerIsTagged)
            return;
        if (p.taken != taken) {
            sinceBimMiss_ = 0;
        } else if (sinceBimMiss_ < window_) {
            ++sinceBimMiss_;
        }
    }

    /** The configured burst window length. */
    int window() const { return window_; }

    /** BIM predictions seen since the last BIM misprediction
     *  (saturates at window()). */
    int sinceBimMiss() const { return sinceBimMiss_; }

    /** Forget any burst in progress. */
    void reset() { sinceBimMiss_ = window_; }

    /**
     * Overwrite the burst counter with a checkpointed value, which the
     * caller has checked lies in [0, window()].
     */
    void restoreSinceBimMiss(int v) { sinceBimMiss_ = v; }

  private:
    int window_;
    int sinceBimMiss_;
};

} // namespace tagecon

#endif // TAGECON_CORE_CONFIDENCE_OBSERVER_HPP
