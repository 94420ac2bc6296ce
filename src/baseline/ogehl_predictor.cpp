#include "baseline/ogehl_predictor.hpp"

#include <algorithm>
#include <cstdlib>

#include "tage/tage_config.hpp"
#include "util/bit_utils.hpp"
#include "util/logging.hpp"
#include "util/saturating_counter.hpp"

namespace tagecon {

OgehlPredictor::OgehlPredictor()
    : OgehlPredictor(Config{})
{
}

OgehlPredictor::OgehlPredictor(Config cfg)
    : cfg_(cfg),
      history_(static_cast<size_t>(cfg.maxHistory) + 2),
      theta_(cfg.initialTheta),
      ctrMax_((1 << (cfg.ctrBits - 1)) - 1),
      ctrMin_(-(1 << (cfg.ctrBits - 1)))
{
    TAGECON_ASSERT(cfg_.numTables >= 2 && cfg_.numTables <= 16,
                   "O-GEHL: bad table count");
    TAGECON_ASSERT(cfg_.logEntries >= 4 && cfg_.logEntries <= 20,
                   "O-GEHL: bad table size");
    TAGECON_ASSERT(cfg_.ctrBits >= 2 && cfg_.ctrBits <= 8,
                   "O-GEHL: bad counter width");

    tables_.assign(static_cast<size_t>(cfg_.numTables)
                       << cfg_.logEntries,
                   0);

    // Geometric history series for tables 1..M-1; table 0 is
    // PC-indexed (history length 0). The series asserts the history
    // bounds and span.
    const auto lengths = TageConfig::geometricHistories(
        cfg_.minHistory, cfg_.maxHistory, cfg_.numTables - 1);
    folds_.resize(static_cast<size_t>(cfg_.numTables));
    for (int t = 1; t < cfg_.numTables; ++t) {
        folds_[static_cast<size_t>(t)] = FoldedHistory(
            lengths[static_cast<size_t>(t - 1)], cfg_.logEntries);
    }
}

uint32_t
OgehlPredictor::indexFor(uint64_t pc, int table) const
{
    const uint64_t mask = maskBits(cfg_.logEntries);
    if (table == 0)
        return static_cast<uint32_t>(pc & mask);
    const uint64_t mixed =
        pc ^ (pc >> (table + 1)) ^
        folds_[static_cast<size_t>(table)].value();
    return static_cast<uint32_t>(mixed & mask);
}

int
OgehlPredictor::computeSum(uint64_t pc) const
{
    // The adder-tree bias: summing M ctr values plus M/2 centers the
    // decision like the original (counters encode [-2^(b-1), 2^(b-1))
    // around -0.5).
    int sum = cfg_.numTables / 2;
    for (int t = 0; t < cfg_.numTables; ++t)
        sum += tables_[(static_cast<size_t>(t) << cfg_.logEntries) +
                       indexFor(pc, t)];
    return sum;
}

Prediction
OgehlPredictor::predict(uint64_t pc)
{
    lastSum_ = computeSum(pc);
    lastAbsSum_ = std::abs(lastSum_);
    return binaryPrediction(lastSum_ >= 0, lastHighConfidence());
}

void
OgehlPredictor::update(uint64_t pc, const Prediction& /*p*/, bool taken)
{
    const int sum = computeSum(pc);
    const bool predicted = sum >= 0;
    const bool mispredicted = predicted != taken;
    const bool low_confidence = std::abs(sum) < theta_;

    // Train on a misprediction or a low-confidence correct prediction.
    if (mispredicted || low_confidence) {
        for (int t = 0; t < cfg_.numTables; ++t) {
            int8_t& ctr =
                tables_[(static_cast<size_t>(t) << cfg_.logEntries) +
                        indexFor(pc, t)];
            ctr = static_cast<int8_t>(
                packed::signedUpdate(ctr, cfg_.ctrBits, taken));
        }
    }

    // Adaptive threshold (ISCA 2005): mispredictions push theta up,
    // low-confidence-but-correct updates push it down, through a
    // saturating counter.
    const int tc_max = (1 << (cfg_.thresholdCtrBits - 1)) - 1;
    const int tc_min = -(1 << (cfg_.thresholdCtrBits - 1));
    if (mispredicted) {
        if (++thresholdCounter_ >= tc_max) {
            thresholdCounter_ = 0;
            ++theta_;
        }
    } else if (low_confidence) {
        if (--thresholdCounter_ <= tc_min) {
            thresholdCounter_ = 0;
            if (theta_ > 1)
                --theta_;
        }
    }

    // Advance the global history and all folds.
    history_.push(taken);
    for (int t = 1; t < cfg_.numTables; ++t)
        folds_[static_cast<size_t>(t)].update(history_);
}

uint64_t
OgehlPredictor::storageBits() const
{
    return static_cast<uint64_t>(cfg_.numTables) *
           (uint64_t{1} << cfg_.logEntries) *
           static_cast<uint64_t>(cfg_.ctrBits);
}

void
OgehlPredictor::reset()
{
    std::fill(tables_.begin(), tables_.end(), int8_t{0});
    history_.clear();
    for (auto& fold : folds_)
        fold.clear();
    theta_ = cfg_.initialTheta;
    thresholdCounter_ = 0;
    lastSum_ = 0;
    lastAbsSum_ = 0;
}

bool
OgehlPredictor::snapshot(StateWriter& out, std::string& /*error*/) const
{
    // Geometry fingerprint: everything loadState() must agree on for
    // the arena size, hash functions and threshold dynamics to line
    // up.
    out.u8(static_cast<uint8_t>(cfg_.numTables));
    out.u8(static_cast<uint8_t>(cfg_.logEntries));
    out.u8(static_cast<uint8_t>(cfg_.ctrBits));
    out.u32(static_cast<uint32_t>(cfg_.minHistory));
    out.u32(static_cast<uint32_t>(cfg_.maxHistory));
    out.u32(static_cast<uint32_t>(cfg_.initialTheta));
    out.u8(static_cast<uint8_t>(cfg_.thresholdCtrBits));

    // Dynamic state.
    out.bytes(reinterpret_cast<const uint8_t*>(tables_.data()),
              tables_.size());

    history_.saveState(out);
    for (int t = 1; t < cfg_.numTables; ++t)
        out.u32(folds_[static_cast<size_t>(t)].value());

    out.i64(theta_);
    out.i64(thresholdCounter_);
    return true;
}

bool
OgehlPredictor::restore(StateReader& in, std::string& error)
{
    const bool geometry_ok =
        in.u8() == static_cast<uint8_t>(cfg_.numTables) &&
        in.u8() == static_cast<uint8_t>(cfg_.logEntries) &&
        in.u8() == static_cast<uint8_t>(cfg_.ctrBits) &&
        in.u32() == static_cast<uint32_t>(cfg_.minHistory) &&
        in.u32() == static_cast<uint32_t>(cfg_.maxHistory) &&
        in.u32() == static_cast<uint32_t>(cfg_.initialTheta) &&
        in.u8() == static_cast<uint8_t>(cfg_.thresholdCtrBits);
    if (!in.ok() || !geometry_ok) {
        error = in.ok() ? "O-GEHL state was written by a predictor "
                          "with a different geometry"
                        : "O-GEHL state is truncated";
        reset();
        return false;
    }

    in.bytes(reinterpret_cast<uint8_t*>(tables_.data()), tables_.size());
    if (!history_.loadState(in)) {
        error = in.ok() ? "O-GEHL state carries a history ring of a "
                          "different capacity"
                        : "O-GEHL state is truncated";
        reset();
        return false;
    }
    for (int t = 1; t < cfg_.numTables; ++t)
        folds_[static_cast<size_t>(t)].restore(in.u32());
    theta_ = static_cast<int>(in.i64());
    thresholdCounter_ = static_cast<int>(in.i64());
    lastSum_ = 0;
    lastAbsSum_ = 0;
    if (!in.ok()) {
        error = "O-GEHL state is truncated";
        reset();
        return false;
    }
    return true;
}

} // namespace tagecon
