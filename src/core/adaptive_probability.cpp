#include "core/adaptive_probability.hpp"

#include "util/logging.hpp"

namespace tagecon {

AdaptiveProbabilityController::AdaptiveProbabilityController()
    : AdaptiveProbabilityController(Config{})
{
}

AdaptiveProbabilityController::AdaptiveProbabilityController(Config cfg)
    : cfg_(cfg), log2Prob_(cfg.initialLog2)
{
    TAGECON_ASSERT(cfg_.minLog2 <= cfg_.maxLog2,
                   "adaptive controller: minLog2 > maxLog2");
    // The predictor's saturation gate takes log2(1/p) <= 15.
    TAGECON_ASSERT(cfg_.maxLog2 <= 15,
                   "adaptive controller: maxLog2 > 15");
    TAGECON_ASSERT(cfg_.initialLog2 >= cfg_.minLog2 &&
                       cfg_.initialLog2 <= cfg_.maxLog2,
                   "adaptive controller: initialLog2 outside [min, max]");
    TAGECON_ASSERT(cfg_.epochLength > 0,
                   "adaptive controller: epochLength must be > 0");
    TAGECON_ASSERT(cfg_.targetMkp > 0.0,
                   "adaptive controller: targetMkp must be positive");
}

bool
AdaptiveProbabilityController::record(ConfidenceLevel level,
                                      bool mispredicted)
{
    ++seen_;
    if (level == ConfidenceLevel::High) {
        ++highPred_;
        if (mispredicted)
            ++highMiss_;
    }
    if (seen_ >= cfg_.epochLength) {
        closeEpoch();
        return true;
    }
    return false;
}

void
AdaptiveProbabilityController::closeEpoch()
{
    // With no high-confidence predictions this epoch there is nothing
    // to measure; hold the probability.
    if (highPred_ > 0) {
        const double mkp = static_cast<double>(highMiss_) /
                           static_cast<double>(highPred_) * 1000.0;
        if (mkp > cfg_.targetMkp && log2Prob_ < cfg_.maxLog2) {
            // Too many mispredictions sneak into the high class: make
            // saturation rarer (halve p).
            ++log2Prob_;
        } else if (mkp < cfg_.targetMkp * cfg_.relaxFraction &&
                   log2Prob_ > cfg_.minLog2) {
            // Comfortably under target: grow coverage (double p).
            --log2Prob_;
        }
    }
    seen_ = 0;
    highPred_ = 0;
    highMiss_ = 0;
    ++epochs_;
}

void
AdaptiveProbabilityController::reset()
{
    log2Prob_ = cfg_.initialLog2;
    seen_ = 0;
    highPred_ = 0;
    highMiss_ = 0;
    epochs_ = 0;
}

void
AdaptiveProbabilityController::saveState(StateWriter& out) const
{
    out.u32(log2Prob_);
    out.u64(seen_);
    out.u64(highPred_);
    out.u64(highMiss_);
    out.u64(epochs_);
}

bool
AdaptiveProbabilityController::loadState(StateReader& in,
                                         std::string& error)
{
    const uint32_t log2_prob = in.u32();
    const uint64_t seen = in.u64();
    const uint64_t high_pred = in.u64();
    const uint64_t high_miss = in.u64();
    const uint64_t epochs = in.u64();
    if (!in.ok()) {
        reset();
        error = "adaptive controller state is truncated";
        return false;
    }
    if (log2_prob < cfg_.minLog2 || log2_prob > cfg_.maxLog2) {
        reset();
        error = "adaptive controller state carries log2(1/p) outside "
                "the configured [min, max] range";
        return false;
    }
    // record() closes the epoch as seen reaches epochLength, and the
    // counts only grow inside one epoch, so saveState() always writes
    // highMiss <= highPred <= seen < epochLength.
    if (seen >= cfg_.epochLength || high_pred > seen ||
        high_miss > high_pred) {
        reset();
        error = "adaptive controller state carries epoch counts "
                "outside highMiss <= highPred <= seen < epochLength";
        return false;
    }
    log2Prob_ = log2_prob;
    seen_ = seen;
    highPred_ = high_pred;
    highMiss_ = high_miss;
    epochs_ = epochs;
    return true;
}

} // namespace tagecon
