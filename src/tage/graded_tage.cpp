#include "tage/graded_tage.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace tagecon {

GradedTage::GradedTage(TageConfig config, GradedTageOptions opt)
    : predictor_(std::move(config)), observer_(opt.bimWindow),
      rawBatch_(TagePredictor::kBatchBlock)
{
    if (opt.adaptive) {
        TAGECON_ASSERT(predictor_.config().probabilisticSaturation,
                       "adaptive probability requires a config with "
                       "probabilisticSaturation enabled");
        TAGECON_ASSERT(!opt.loop,
                       "the adaptive controller is not wired into L-TAGE; "
                       "use a tage* base for adaptive runs");
        controller_.emplace(opt.adaptiveConfig);
        predictor_.setSatLog2Prob(controller_->log2Prob());
    }
    if (opt.loop)
        loop_ = std::make_unique<LoopPart>();
}

void
GradedTage::LoopPart::predict(uint64_t pc, Prediction& p)
{
    last = table.lookup(pc);
    if (last.valid && withLoop.value() >= 0) {
        // Loop-provided predictions are practically always correct.
        p.taken = last.taken;
        p.confidence = ConfidenceLevel::High;
        p.cls = representativeClass(p.confidence);
    }
}

void
GradedTage::LoopPart::reset()
{
    table.reset();
    withLoop.set(kWithLoopStart);
    last = {};
}

void
GradedTage::LoopPart::train(uint64_t pc, bool tage_taken, bool taken)
{
    if (last.valid && last.taken != tage_taken)
        withLoop.update(last.taken == taken);
    table.update(pc, taken, tage_taken != taken);
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
    if (loop_)
        loop_->predict(pc, p);
    return p;
}

void
GradedTage::update(uint64_t pc, const Prediction& p, bool taken)
{
    TAGECON_ASSERT(p.payload == seq_,
                   "GradedTage::update: prediction is not from the "
                   "immediately preceding predict()");
    const bool mispredicted = p.taken != taken;
    observer_.onResolve(raw_, taken);
    // The controller measures the intrinsic (storage-free) grade, not
    // whatever a decorating estimator rewrote the level to.
    if (controller_ &&
        controller_->record(lastIntrinsicLevel_, mispredicted)) {
        predictor_.setSatLog2Prob(controller_->log2Prob());
    }
    if (loop_)
        loop_->train(pc, raw_.taken, taken);
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
    // Block by block, so the raw scratch stays one block however long
    // the input, each block is graded while it is still in L1, and a
    // lookup group's stacks walk a chunk in the same blocks.
    const size_t n = pcs.size();
    for (size_t at = 0; at < n; at += TagePredictor::kBatchBlock) {
        const size_t len = std::min(n - at, TagePredictor::kBatchBlock);
        predictBlock(pcs.subspan(at, len), taken.subspan(at, len),
                     out.subspan(at, len));
    }
}

inline bool
GradedTage::gradeElement(size_t k, bool taken, Prediction& p)
{
    const TagePrediction& raw = rawBatch_[k];
    p.taken = raw.taken;
    p.cls = observer_.classify(raw);
    p.confidence = confidenceLevel(p.cls);
    p.payload = ++seq_;
    lastIntrinsicLevel_ = p.confidence;
    observer_.onResolve(raw, taken);
    return controller_ && controller_->record(p.confidence, p.taken != taken);
}

void
GradedTage::predictBlock(std::span<const uint64_t> pcs,
                         std::span<const uint8_t> taken,
                         std::span<Prediction> out)
{
    const size_t n = pcs.size();
    predictor_.lookupBlock(pcs, taken);
    const std::span<TagePrediction> raw(rawBatch_.data(), n);

    // Neither the burst-window observer nor the controller feeds back
    // into the TAGE tables, except through the element whose record()
    // closes an epoch: that element trains with the new probability.
    // record() counts every element, so that element is known up
    // front. TAGE resolves and trains the elements before it in one
    // fused pass, and they are graded after it in element order,
    // which yields the scalar loop's sequence because grading feeds
    // nothing back. The closing element is filled, graded and
    // record()ed, the probability set, and only then trained.
    for (size_t k = 0; k < n;) {
        size_t end = n;
        if (controller_ && controller_->untilEpochEnd() <= n - k)
            end = k + static_cast<size_t>(controller_->untilEpochEnd()) - 1;
        predictor_.resolveBlock(k, end, taken, raw);
        for (; k < end; ++k) {
            const bool closed = gradeElement(k, taken[k] != 0, out[k]);
            TAGECON_ASSERT(!closed, "an epoch closed inside a fused run");
        }
        if (end == n)
            break;
        predictor_.fillElement(k, raw[k]);
        const bool closed = gradeElement(k, taken[k] != 0, out[k]);
        TAGECON_ASSERT(closed, "the epoch did not close where counted");
        predictor_.setSatLog2Prob(controller_->log2Prob());
        predictor_.trainElement(k, raw[k], taken[k] != 0);
        ++k;
    }
    // The loop table never feeds back into TAGE, which trains on its
    // own lookup, so the loop part steps in element order on its own.
    if (loop_) {
        for (size_t k = 0; k < n; ++k) {
            loop_->predict(pcs[k], out[k]);
            loop_->train(pcs[k], raw[k].taken, taken[k] != 0);
        }
    }
}

uint64_t
GradedTage::storageBits() const
{
    return predictor_.storageBits() +
           (loop_ ? loop_->table.storageBits() : 0);
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
    if (loop_)
        loop_->reset();
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
    return (loop_ ? "ltage-" : "tage-") + predictor_.config().name;
}

bool
GradedTage::snapshot(StateWriter& out, std::string& /*error*/) const
{
    out.u8(parts());
    predictor_.saveState(out);
    out.i64(observer_.sinceBimMiss());
    out.u64(seq_);
    out.u8(static_cast<uint8_t>(levelIndex(lastIntrinsicLevel_)));
    if (controller_)
        controller_->saveState(out);
    if (loop_) {
        loop_->table.saveState(out);
        out.i64(loop_->withLoop.value());
    }
    return true;
}

bool
GradedTage::restore(StateReader& in, std::string& error)
{
    // Every failure leaves the predictor reset; a part's own loader
    // has already filled in error when why is null.
    const auto fail = [&](const char* why) {
        reset();
        if (why != nullptr)
            error = why;
        return false;
    };
    if (in.u8() != parts())
        return fail("TAGE checkpoint disagrees with this predictor about "
                    "the adaptive controller or the loop predictor");
    if (!predictor_.loadState(in, error))
        return fail(nullptr);
    const int64_t since_bim_miss = in.i64();
    const uint64_t seq = in.u64();
    const uint8_t level = in.u8();
    if (!in.ok() || level >= kNumConfidenceLevels)
        return fail("TAGE checkpoint is truncated");
    // onResolve() keeps the burst count in [0, window()].
    if (since_bim_miss < 0 || since_bim_miss > observer_.window())
        return fail("TAGE checkpoint carries a burst-window count outside "
                    "[0, window]");
    if (controller_ && !controller_->loadState(in, error))
        return fail(nullptr);
    if (loop_) {
        if (!loop_->table.loadState(in, error))
            return fail(nullptr);
        const int64_t with_loop = in.i64();
        if (!in.ok() || with_loop < loop_->withLoop.min() ||
            with_loop > loop_->withLoop.max())
            return fail(in.ok() ? "TAGE checkpoint carries a WITHLOOP value "
                                  "outside its 7-bit range"
                                : "TAGE checkpoint is truncated");
        loop_->withLoop.set(static_cast<int>(with_loop));
    }
    observer_.restoreSinceBimMiss(static_cast<int>(since_bim_miss));
    seq_ = seq;
    lastIntrinsicLevel_ = kAllConfidenceLevels[level];
    return true;
}

} // namespace tagecon
