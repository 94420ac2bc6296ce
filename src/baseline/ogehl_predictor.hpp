/**
 * @file
 * The O-GEHL predictor (Seznec, ISCA 2005) with its storage-free
 * self-confidence estimate. Sec. 2.2 of the paper uses it as the
 * pre-TAGE reference point for storage-free confidence: a prediction
 * is high confidence when the absolute value of the prediction sum is
 * at or above the update threshold. The paper quotes its quality as
 * "quite good PVN (about one third of low-confidence predictions
 * mispredicted) but limited SPEC (only half of the mispredicted
 * branches classified low confidence)" — the bench_vs_selfconf binary
 * checks exactly that.
 */

#ifndef TAGECON_BASELINE_OGEHL_PREDICTOR_HPP
#define TAGECON_BASELINE_OGEHL_PREDICTOR_HPP

#include <string>
#include <vector>

#include "core/graded_predictor.hpp"
#include "util/global_history.hpp"

namespace tagecon {

/**
 * GEometric History Length predictor with adder tree and adaptive
 * update threshold. Tables of signed counters are indexed with
 * geometrically increasing history lengths; the prediction is the
 * sign of the counter sum, graded with its |sum| >= theta
 * self-confidence.
 */
class OgehlPredictor final : public GradedPredictor
{
  public:
    struct Config {
        /** Number of component tables (T0 is PC-indexed). */
        int numTables = 8;

        /** log2 of entries per table. */
        int logEntries = 11;

        /** Counter width in bits (4 in the ISCA 2005 design). */
        int ctrBits = 4;

        /** Shortest non-zero history length (table T1). */
        int minHistory = 2;

        /** Longest history length (table T_{M-1}). */
        int maxHistory = 200;

        /** Initial update threshold; adapts at run time. */
        int initialTheta = 8;

        /** Width of the threshold-adaptation counter. */
        int thresholdCtrBits = 7;
    };

    OgehlPredictor();
    explicit OgehlPredictor(Config cfg);

    Prediction predict(uint64_t pc) override;
    void update(uint64_t pc, const Prediction& p, bool taken) override;
    uint64_t storageBits() const override;
    void reset() override;
    bool hasIntrinsicConfidence() const override { return true; }

    /**
     * Serialize the architectural state — counter arena, history ring,
     * fold registers, adaptive threshold — behind a geometry
     * fingerprint. The last-sum introspection values are
     * predict-transient and not part of the state.
     */
    bool snapshot(StateWriter& out, std::string& error) const override;
    bool restore(StateReader& in, std::string& error) override;

    /**
     * Self-confidence of the last predict(): high iff |sum| >= theta
     * (the storage-free scheme of Sec. 2.2).
     */
    bool lastHighConfidence() const { return lastAbsSum_ >= theta_; }

    /** Prediction sum of the last predict(). */
    int lastSum() const { return lastSum_; }

    /** Current (adaptive) update threshold. */
    int theta() const { return theta_; }

    /** The configuration in use. */
    const Config& config() const { return cfg_; }

  protected:
    std::string defaultName() const override { return "ogehl"; }

  private:
    uint32_t indexFor(uint64_t pc, int table) const;
    int computeSum(uint64_t pc) const;

    Config cfg_;

    /**
     * Flat counter arena: table t owns the (1 << logEntries) int8
     * counters starting at t << logEntries. One byte per counter via
     * the packed::signedUpdate transition at ctrBits.
     */
    std::vector<int8_t> tables_;
    GlobalHistory history_;
    std::vector<FoldedHistory> folds_; // [table], table 0 unused

    int theta_;
    int thresholdCounter_ = 0; // saturating, drives theta adaptation
    int lastSum_ = 0;
    int lastAbsSum_ = 0;
    int ctrMax_;
    int ctrMin_;
};

} // namespace tagecon

#endif // TAGECON_BASELINE_OGEHL_PREDICTOR_HPP
