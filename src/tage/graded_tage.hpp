/**
 * @file
 * The GradedPredictor adapter for the TAGE family: TAGE with the
 * paper's storage-free confidence classes, optionally driven by the
 * Sec. 6.2 adaptive controller, and L-TAGE (TAGE + the loop predictor
 * of reference [12]) as the same adapter with its loop part attached.
 *
 * This is the intrinsic-confidence host of the new API: predict()
 * already returns the 7-class / 3-level grade read off the predictor's
 * own state, so a "+sfc" spec is the adapter itself and costs nothing.
 */

#ifndef TAGECON_TAGE_GRADED_TAGE_HPP
#define TAGECON_TAGE_GRADED_TAGE_HPP

#include <memory>
#include <optional>
#include <vector>

#include "core/adaptive_probability.hpp"
#include "core/confidence_observer.hpp"
#include "core/graded_predictor.hpp"
#include "tage/loop_predictor.hpp"
#include "tage/tage_predictor.hpp"
#include "util/saturating_counter.hpp"

namespace tagecon {

/** Knobs of the TAGE-family adapter. */
struct GradedTageOptions {
    /** medium-conf-bim burst window (Sec. 5.1.2); the paper uses 8. */
    int bimWindow = 8;

    /**
     * Drive the saturation probability with the Sec. 6.2 adaptive
     * controller. Requires the config to enable
     * probabilisticSaturation; the constructor asserts it.
     */
    bool adaptive = false;

    /** Controller parameters when adaptive is set. */
    AdaptiveProbabilityController::Config adaptiveConfig{};

    /**
     * Attach the L-TAGE loop part (the "ltage*" bases). Cannot be
     * combined with adaptive; the constructor asserts it is not.
     */
    bool loop = false;
};

/**
 * TAGE + storage-free confidence observer (+ optional adaptive
 * saturation-probability controller, or + optional L-TAGE loop part)
 * behind the GradedPredictor interface. This is the paper's whole
 * pipeline as one registry-constructible object.
 *
 * With the loop part, a confident loop entry overrides TAGE once the
 * WITHLOOP counter has learned that trusting it pays off; such
 * predictions are graded high confidence (the entry is only trusted at
 * full confidence). The grade of every other prediction, the burst
 * window and the TAGE tables see only TAGE's own lookup.
 */
class GradedTage : public GradedPredictor
{
  public:
    explicit GradedTage(TageConfig config, GradedTageOptions opt = {});

    Prediction predict(uint64_t pc) override;
    void update(uint64_t pc, const Prediction& p, bool taken) override;

    /**
     * True unless the adaptive controller is attached. predictMany()
     * batches every element of every stack, the adaptive one
     * included, so this no longer describes the step: perfbench's
     * replay reads it to time the adaptive row through the scalar
     * loop, and its Replay.SweepMatchesRunSweepCell test pins that
     * reading, so it stays false there until the replay is retired
     * (see ROADMAP).
     */
    bool hasBatchedPredict() const override;

    /**
     * Fused batched step, one TagePredictor::kBatchBlock block at a
     * time: TAGE looks the block up (TagePredictor::lookupBlock(), or
     * its leader's rows on a follower), resolves and trains it, and
     * the storage-free grading and the controller's record() follow
     * per element in scalar order. With a controller attached, the
     * element whose record() closes an epoch is resolved from the
     * block's rows on its own: filled, graded, record()ed, the new
     * saturation probability set, and only then trained, exactly as
     * in the scalar loop; the fused resolve runs on either side of it.
     * The loop part steps in a pass of its own after the grading.
     */
    void predictMany(std::span<const uint64_t> pcs,
                     std::span<const uint8_t> taken,
                     std::span<Prediction> out) override;

    /** The TAGE predictor under the grading, for lookup sharing. */
    TagePredictor* tagePredictor() override { return &predictor_; }

    uint64_t storageBits() const override;
    void reset() override;

    bool hasIntrinsicConfidence() const override { return true; }
    uint64_t allocations() const override;
    unsigned satLog2Prob() const override;

    /**
     * Full-pipeline checkpoint: a flag byte naming the attached parts,
     * the TAGE tables/histories plus the burst-window observer, the
     * predict/update pairing sequence and, when attached, the adaptive
     * controller or the loop table and WITHLOOP.
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

    /** L-TAGE's loop part: the loop table and its arbiter. */
    struct LoopPart {
        LoopPredictor table;

        /** WITHLOOP's initial value: the table starts distrusted. */
        static constexpr int kWithLoopStart = -1;

        /** WITHLOOP: 7-bit hysteresis. */
        SignedSatCounter withLoop{7, kWithLoopStart};

        /** The lookup routed from predict() to the paired train(). */
        LoopPredictor::Result last;

        /**
         * Look @p pc up and let a valid entry override @p p when
         * WITHLOOP trusts the table.
         */
        void predict(uint64_t pc, Prediction& p);

        /**
         * Train with the resolved branch: WITHLOOP learns whether the
         * table beats TAGE when they disagree, and the table allocates
         * on TAGE's mispredictions.
         */
        void train(uint64_t pc, bool tage_taken, bool taken);

        /** Back to the state of a new part, in place. */
        void reset();
    };

    /** The loop part, or null when it is not attached. */
    const LoopPart* loop() const { return loop_.get(); }

  protected:
    std::string defaultName() const override;

  private:
    /**
     * One block of at most TagePredictor::kBatchBlock elements: the
     * lookup, the resolve and grading around each epoch close, then
     * the loop part's pass.
     */
    void predictBlock(std::span<const uint64_t> pcs,
                      std::span<const uint8_t> taken,
                      std::span<Prediction> out);

    /**
     * Grade element @p k of the block from rawBatch_[k] into @p p and
     * record() it with the controller; true when that closed an epoch.
     */
    bool gradeElement(size_t k, bool taken, Prediction& p);

    /** The flag byte snapshot() writes: one bit per attached part. */
    uint8_t parts() const { return (controller_ ? 1 : 0) | (loop_ ? 2 : 0); }

    TagePredictor predictor_;
    ConfidenceObserver observer_;
    std::optional<AdaptiveProbabilityController> controller_;

    /** On the heap, so the tage* stacks do not carry its bytes. */
    std::unique_ptr<LoopPart> loop_;

    /**
     * The raw prediction routed from predict() to the paired update();
     * the lookup it trains from stays in the predictor's rows.
     */
    TagePrediction raw_;
    ConfidenceLevel lastIntrinsicLevel_ = ConfidenceLevel::High;
    uint64_t seq_ = 0;

    /**
     * predictMany() scratch, one TAGE block; not architectural state.
     */
    std::vector<TagePrediction> rawBatch_;
};

} // namespace tagecon

#endif // TAGECON_TAGE_GRADED_TAGE_HPP
