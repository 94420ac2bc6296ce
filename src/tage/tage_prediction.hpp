/**
 * @file
 * The complete output of one TAGE lookup. This struct is the paper's
 * whole point: everything the storage-free confidence estimator needs
 * (provider component identity, provider counter strength, bimodal
 * counter state) is already in here — no extra tables required.
 */

#ifndef TAGECON_TAGE_TAGE_PREDICTION_HPP
#define TAGECON_TAGE_TAGE_PREDICTION_HPP

namespace tagecon {

/**
 * Result of TagePredictor::predict(). Carries the architectural answer
 * (taken) and the observable internals used for confidence grading.
 * The lookup itself (each table's index and tag) stays in the
 * predictor's lookup rows, which the paired update() trains from.
 */
struct TagePrediction {
    /** Final prediction delivered to the front-end. */
    bool taken = false;

    /** True when a tagged component provided the prediction. */
    bool providerIsTagged = false;

    /**
     * Provider component: 1..M for tagged tables (M = longest history),
     * 0 when the bimodal base predictor provided.
     */
    int providerTable = 0;

    /** Provider's own direction (before any altpred substitution). */
    bool providerPredTaken = false;

    /** Tagged provider counter value; 0 when provider is bimodal. */
    int providerCtr = 0;

    /**
     * Prediction strength |2*ctr + 1| of the tagged provider counter
     * (1 = weak ... 2^bits-1 = saturated); 0 when provider is bimodal.
     */
    int providerStrength = 0;

    /** True when the tagged provider counter is saturated. */
    bool providerSaturated = false;

    /** True when the tagged provider counter is weak (strength 1). */
    bool providerWeak = false;

    /** Bimodal table direction at this PC. */
    bool bimodalTaken = false;

    /** True when the bimodal counter at this PC is weak. */
    bool bimodalWeak = false;

    /** Alternate prediction (next matching component / bimodal). */
    bool altTaken = false;

    /** True when the alternate prediction came from a tagged table. */
    bool altIsTagged = false;

    /** Alternate provider table (0 = bimodal). */
    int altTable = 0;

    /**
     * True when the final prediction used the alternate prediction
     * because the provider entry was weak and USE_ALT_ON_NA was
     * non-negative (Sec. 3.1).
     */
    bool usedAlt = false;

    /** Field-wise equality (the batched-vs-scalar tests compare). */
    bool operator==(const TagePrediction&) const = default;
};

// A batch step keeps a block of these beside the lookup rows; the
// grade needs no more than the fields above.
static_assert(sizeof(TagePrediction) <= 48,
              "TagePrediction carries the grade, not the lookup");

} // namespace tagecon

#endif // TAGECON_TAGE_TAGE_PREDICTION_HPP
