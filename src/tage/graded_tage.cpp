#include "tage/graded_tage.hpp"

#include "util/logging.hpp"

namespace tagecon {

// ------------------------------------------------------------ GradedTage

GradedTage::GradedTage(TageConfig config, GradedTageOptions opt)
    : predictor_(std::move(config)), observer_(opt.bimWindow)
{
    if (opt.adaptive) {
        if (!predictor_.config().probabilisticSaturation)
            fatal("adaptive probability requires a config with "
                  "probabilisticSaturation enabled");
        controller_.emplace(opt.adaptiveConfig);
        predictor_.setSatLog2Prob(controller_->log2Prob());
    }
}

Prediction
GradedTage::predict(uint64_t pc)
{
    raw_ = predictor_.predict(pc);
    Prediction p;
    p.taken = raw_.taken;
    p.cls = observer_.classify(raw_);
    p.confidence = confidenceLevel(p.cls);
    p.payload = ++seq_;
    lastIntrinsicLevel_ = p.confidence;
    return p;
}

void
GradedTage::update(uint64_t pc, const Prediction& p, bool taken)
{
    if (p.payload != seq_)
        fatal("GradedTage::update: prediction is not from the "
              "immediately preceding predict()");
    const bool mispredicted = p.taken != taken;
    observer_.onResolve(raw_, taken);
    // The controller measures the intrinsic (storage-free) grade, not
    // whatever a decorating estimator rewrote the level to.
    if (controller_ &&
        controller_->record(lastIntrinsicLevel_, mispredicted)) {
        predictor_.setSatLog2Prob(controller_->log2Prob());
    }
    predictor_.update(pc, raw_, taken);
}

bool
GradedTage::hasBatchedPredict() const
{
    return !controller_.has_value();
}

void
GradedTage::predictMany(std::span<const uint64_t> pcs,
                        std::span<const uint8_t> taken,
                        std::span<Prediction> out)
{
    // The controller feeds back only through the element whose
    // record() closes an epoch: that element trains with the new
    // probability. record() counts every element, so that element is
    // known up front — batch up to it, step it alone through the
    // scalar path, and carry on batched.
    const size_t n = pcs.size();
    for (size_t at = 0; at < n;) {
        size_t len = n - at;
        const bool closes =
            controller_ && controller_->untilEpochEnd() <= len;
        if (closes)
            len = static_cast<size_t>(controller_->untilEpochEnd()) - 1;
        predictBatch(pcs.subspan(at, len), taken.subspan(at, len),
                     out.subspan(at, len));
        at += len;
        if (closes) {
            out[at] = predict(pcs[at]);
            update(pcs[at], out[at], taken[at] != 0);
            ++at;
        }
    }
}

void
GradedTage::predictBatch(std::span<const uint64_t> pcs,
                         std::span<const uint8_t> taken,
                         std::span<Prediction> out)
{
    const size_t n = pcs.size();
    if (n == 0)
        return;
    if (rawBatch_.size() < n)
        rawBatch_.resize(n);
    predictor_.predictMany(
        pcs, taken, std::span<TagePrediction>(rawBatch_.data(), n));

    // Neither the burst-window observer nor (inside one epoch) the
    // controller feeds back into the TAGE tables, so their per-element
    // steps can run as a second pass in element order — the exact
    // sequence the scalar loop produces.
    for (size_t k = 0; k < n; ++k) {
        const TagePrediction& raw = rawBatch_[k];
        const bool outcome = taken[k] != 0;
        Prediction& p = out[k];
        p.taken = raw.taken;
        p.cls = observer_.classify(raw);
        p.confidence = confidenceLevel(p.cls);
        p.payload = ++seq_;
        lastIntrinsicLevel_ = p.confidence;
        observer_.onResolve(raw, outcome);
        if (controller_) {
            const bool closed =
                controller_->record(p.confidence, p.taken != outcome);
            TAGECON_ASSERT(!closed, "an epoch closed inside a batch");
        }
    }
    // Keep the scalar invariant that raw_ pairs with the newest seq_.
    raw_ = rawBatch_[n - 1];
}

uint64_t
GradedTage::storageBits() const
{
    return predictor_.storageBits();
}

void
GradedTage::reset()
{
    predictor_.reset();
    observer_.reset();
    lastIntrinsicLevel_ = ConfidenceLevel::High;
    seq_ = 0;
    if (controller_) {
        controller_->reset();
        predictor_.setSatLog2Prob(controller_->log2Prob());
    }
}

uint64_t
GradedTage::allocations() const
{
    return predictor_.allocations();
}

unsigned
GradedTage::satLog2Prob() const
{
    return predictor_.satLog2Prob();
}

std::string
GradedTage::defaultName() const
{
    return "tage-" + predictor_.config().name;
}

bool
GradedTage::snapshot(StateWriter& out, std::string& error) const
{
    (void)error;
    out.u8(controller_ ? 1 : 0);
    predictor_.saveState(out);
    out.i64(observer_.sinceBimMiss());
    out.u64(seq_);
    out.u8(static_cast<uint8_t>(levelIndex(lastIntrinsicLevel_)));
    if (controller_)
        controller_->saveState(out);
    return true;
}

bool
GradedTage::restore(StateReader& in, std::string& error)
{
    const bool has_controller = in.u8() != 0;
    if (has_controller != controller_.has_value()) {
        reset();
        error = "TAGE checkpoint disagrees with this predictor about "
                "the adaptive controller";
        return false;
    }
    if (!predictor_.loadState(in, error)) {
        reset();
        return false;
    }
    const int64_t since_bim_miss = in.i64();
    const uint64_t seq = in.u64();
    const uint8_t level = in.u8();
    if (!in.ok() || level >= kNumConfidenceLevels) {
        reset();
        error = "TAGE checkpoint is truncated";
        return false;
    }
    if (controller_ && !controller_->loadState(in, error)) {
        reset();
        return false;
    }
    observer_.restoreSinceBimMiss(static_cast<int>(since_bim_miss));
    seq_ = seq;
    lastIntrinsicLevel_ = kAllConfidenceLevels[level];
    return true;
}

// ----------------------------------------------------------- GradedLTage

GradedLTage::GradedLTage(TageConfig tage_config,
                         LoopPredictor::Config loop_config,
                         GradedTageOptions opt)
    : tageConfig_(tage_config), loopConfig_(loop_config),
      predictor_(std::move(tage_config), loop_config),
      observer_(opt.bimWindow)
{
    if (opt.adaptive)
        fatal("the adaptive controller is not wired into L-TAGE; use a "
              "tage* base for adaptive runs");
}

Prediction
GradedLTage::predict(uint64_t pc)
{
    raw_ = predictor_.predict(pc);
    Prediction p;
    p.taken = raw_.taken;
    if (raw_.fromLoopPredictor) {
        // Loop-provided predictions are practically always correct.
        p.confidence = ConfidenceLevel::High;
        p.cls = representativeClass(p.confidence);
    } else {
        p.cls = observer_.classify(raw_.tage);
        p.confidence = confidenceLevel(p.cls);
    }
    p.payload = ++seq_;
    return p;
}

void
GradedLTage::update(uint64_t pc, const Prediction& p, bool taken)
{
    if (p.payload != seq_)
        fatal("GradedLTage::update: prediction is not from the "
              "immediately preceding predict()");
    observer_.onResolve(raw_.tage, taken);
    predictor_.update(pc, raw_, taken);
}

uint64_t
GradedLTage::storageBits() const
{
    return predictor_.storageBits();
}

void
GradedLTage::reset()
{
    predictor_ = LTagePredictor(tageConfig_, loopConfig_);
    observer_.reset();
    seq_ = 0;
}

uint64_t
GradedLTage::allocations() const
{
    return predictor_.tage().allocations();
}

unsigned
GradedLTage::satLog2Prob() const
{
    return predictor_.tage().satLog2Prob();
}

std::string
GradedLTage::defaultName() const
{
    return "ltage-" + predictor_.tage().config().name;
}

} // namespace tagecon
