/**
 * @file
 * GradedPredictor adapters for the TAGE family: TAGE with the paper's
 * storage-free confidence classes, and L-TAGE (TAGE + loop predictor)
 * with the same grading on its embedded TAGE component.
 *
 * These are the intrinsic-confidence hosts of the new API: predict()
 * already returns the 7-class / 3-level grade read off the predictor's
 * own state, so a "+sfc" spec is the adapter itself and costs nothing.
 */

#ifndef TAGECON_TAGE_GRADED_TAGE_HPP
#define TAGECON_TAGE_GRADED_TAGE_HPP

#include <optional>
#include <vector>

#include "core/adaptive_probability.hpp"
#include "core/confidence_observer.hpp"
#include "core/graded_predictor.hpp"
#include "tage/ltage_predictor.hpp"
#include "tage/tage_predictor.hpp"

namespace tagecon {

/** Knobs shared by the TAGE-family adapters. */
struct GradedTageOptions {
    /** medium-conf-bim burst window (Sec. 5.1.2); the paper uses 8. */
    int bimWindow = 8;

    /**
     * Drive the saturation probability with the Sec. 6.2 adaptive
     * controller. Requires the config to enable
     * probabilisticSaturation; the constructor fatal()s otherwise.
     */
    bool adaptive = false;

    /** Controller parameters when adaptive is set. */
    AdaptiveProbabilityController::Config adaptiveConfig{};
};

/**
 * TAGE + storage-free confidence observer (+ optional adaptive
 * saturation-probability controller) behind the GradedPredictor
 * interface. This is the paper's whole pipeline as one registry-
 * constructible object.
 */
class GradedTage : public GradedPredictor
{
  public:
    explicit GradedTage(TageConfig config, GradedTageOptions opt = {});

    Prediction predict(uint64_t pc) override;
    void update(uint64_t pc, const Prediction& p, bool taken) override;

    /**
     * True unless the adaptive controller is attached: predictMany()
     * still sends the epoch-closing element through the scalar path.
     */
    bool hasBatchedPredict() const override;

    /**
     * Fused batched step through TagePredictor::predictMany(), with
     * the storage-free grading and the controller's record() applied
     * per element in scalar order. With a controller attached, the
     * batch is cut before each element whose record() closes an
     * epoch; that element alone steps through predict()/update(), so
     * it trains with the new saturation probability exactly as in the
     * scalar loop, and batching resumes after it.
     */
    void predictMany(std::span<const uint64_t> pcs,
                     std::span<const uint8_t> taken,
                     std::span<Prediction> out) override;

    uint64_t storageBits() const override;
    void reset() override;

    bool hasIntrinsicConfidence() const override { return true; }
    uint64_t allocations() const override;
    unsigned satLog2Prob() const override;

    /**
     * Full-pipeline checkpoint: the TAGE tables/histories plus the
     * burst-window observer, the predict/update pairing sequence and
     * (when attached) the adaptive controller.
     */
    bool snapshot(StateWriter& out, std::string& error) const override;
    bool restore(StateReader& in, std::string& error) override;

    /** The underlying predictor (read-only). */
    const TagePredictor& tage() const { return predictor_; }

    /** The burst-window observer (read-only). */
    const ConfidenceObserver& observer() const { return observer_; }

    /** The adaptive controller, when attached. */
    const std::optional<AdaptiveProbabilityController>&
    controller() const
    {
        return controller_;
    }

  protected:
    std::string defaultName() const override;

  private:
    /**
     * One batched run that closes no controller epoch: the fused TAGE
     * step, then grading and record() per element.
     */
    void predictBatch(std::span<const uint64_t> pcs,
                      std::span<const uint8_t> taken,
                      std::span<Prediction> out);

    TagePredictor predictor_;
    ConfidenceObserver observer_;
    std::optional<AdaptiveProbabilityController> controller_;

    /** Lookup state routed from predict() to the paired update(). */
    TagePrediction raw_;
    ConfidenceLevel lastIntrinsicLevel_ = ConfidenceLevel::High;
    uint64_t seq_ = 0;

    /** predictMany() scratch; not architectural state. */
    std::vector<TagePrediction> rawBatch_;
};

/**
 * L-TAGE behind the GradedPredictor interface. The embedded TAGE
 * prediction is graded with the storage-free observer; loop-provided
 * predictions are graded high confidence (the loop entry is only
 * trusted at full confidence, Sec. 2 of the L-TAGE description).
 */
class GradedLTage : public GradedPredictor
{
  public:
    explicit GradedLTage(TageConfig tage_config,
                         LoopPredictor::Config loop_config = {},
                         GradedTageOptions opt = {});

    Prediction predict(uint64_t pc) override;
    void update(uint64_t pc, const Prediction& p, bool taken) override;

    uint64_t storageBits() const override;
    void reset() override;

    bool hasIntrinsicConfidence() const override { return true; }
    uint64_t allocations() const override;
    unsigned satLog2Prob() const override;

    /** The underlying L-TAGE predictor (read-only). */
    const LTagePredictor& ltage() const { return predictor_; }

    /** The burst-window observer (read-only). */
    const ConfidenceObserver& observer() const { return observer_; }

  protected:
    std::string defaultName() const override;

  private:
    TageConfig tageConfig_;
    LoopPredictor::Config loopConfig_;
    LTagePredictor predictor_;
    ConfidenceObserver observer_;

    LTagePrediction raw_;
    uint64_t seq_ = 0;
};

} // namespace tagecon

#endif // TAGECON_TAGE_GRADED_TAGE_HPP
