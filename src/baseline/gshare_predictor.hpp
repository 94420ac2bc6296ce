/**
 * @file
 * McFarling's gshare predictor (DEC WRL TN-36, 1993): a table of 2-bit
 * counters indexed by PC XOR global history. Serves as the host
 * predictor the JRS confidence estimator was originally evaluated
 * with, and as an accuracy baseline for TAGE.
 */

#ifndef TAGECON_BASELINE_GSHARE_PREDICTOR_HPP
#define TAGECON_BASELINE_GSHARE_PREDICTOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/graded_predictor.hpp"

namespace tagecon {

/**
 * Classic gshare. Confidence-blind: every prediction is graded high
 * and hasIntrinsicConfidence() is false, so the registry rejects
 * "gshare+sfc" and a storage-based estimator (JRS) must be attached
 * instead.
 */
class GsharePredictor final : public GradedPredictor
{
  public:
    /**
     * @param log_entries log2 of the counter table size (the default
     *        15 gives a 64Kbit table, comparable to the 64K TAGE).
     * @param history_bits Global history bits mixed into the index;
     *        histories longer than log_entries are folded in
     *        log_entries-bit chunks (so the parameter is honored, not
     *        clamped).
     * @param ctr_bits Counter width.
     */
    explicit GsharePredictor(int log_entries = 15, int history_bits = 15,
                             int ctr_bits = 2);

    Prediction predict(uint64_t pc) override;
    void update(uint64_t pc, const Prediction& p, bool taken) override;
    uint64_t storageBits() const override;
    void reset() override;

    /** Serialize geometry fingerprint + counter table + history. */
    bool snapshot(StateWriter& out, std::string& error) const override;
    bool restore(StateReader& in, std::string& error) override;

    /** Current global history register value. */
    uint64_t history() const { return history_; }

    /** Index used for @p pc with the current history (tests). */
    uint32_t indexFor(uint64_t pc) const;

  protected:
    std::string defaultName() const override { return "gshare"; }

  private:
    /** Packed counters: one byte per entry, width held in ctrBits_. */
    std::vector<uint8_t> table_;
    uint64_t history_ = 0;
    int logEntries_;
    int historyBits_;
    int ctrBits_;
};

} // namespace tagecon

#endif // TAGECON_BASELINE_GSHARE_PREDICTOR_HPP
