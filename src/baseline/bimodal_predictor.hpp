/**
 * @file
 * Smith's bimodal predictor (ISCA 1981): a PC-indexed table of 2-bit
 * saturating counters. Also the historical origin of storage-free
 * confidence: a weak counter means an unreliable prediction — the same
 * observation the paper applies to TAGE's base component.
 */

#ifndef TAGECON_BASELINE_BIMODAL_PREDICTOR_HPP
#define TAGECON_BASELINE_BIMODAL_PREDICTOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/graded_predictor.hpp"
#include "util/saturating_counter.hpp"

namespace tagecon {

/**
 * Bimodal predictor graded with Smith self-confidence: a weak counter
 * is low confidence, any other high.
 */
class BimodalPredictor final : public GradedPredictor
{
  public:
    /**
     * @param log_entries log2 of the table size (the default 15 gives
     *        a 64Kbit table).
     * @param ctr_bits Counter width (2 in the classic design).
     */
    explicit BimodalPredictor(int log_entries = 15, int ctr_bits = 2);

    Prediction predict(uint64_t pc) override;
    void update(uint64_t pc, const Prediction& p, bool taken) override;
    uint64_t storageBits() const override;
    void reset() override;
    bool hasIntrinsicConfidence() const override { return true; }

    /** Serialize geometry fingerprint + counter table. */
    bool snapshot(StateWriter& out, std::string& error) const override;
    bool restore(StateReader& in, std::string& error) override;

    /**
     * Smith self-confidence for the branch at @p pc: high confidence
     * iff the counter is not weak.
     */
    bool highConfidence(uint64_t pc) const;

    /** Snapshot of the counter backing @p pc (tests / introspection). */
    UnsignedSatCounter counterFor(uint64_t pc) const;

  protected:
    std::string defaultName() const override { return "bimodal"; }

  private:
    uint32_t indexFor(uint64_t pc) const;

    /** Packed counters: one byte per entry, width held in ctrBits_. */
    std::vector<uint8_t> table_;
    int logEntries_;
    int ctrBits_;
};

} // namespace tagecon

#endif // TAGECON_BASELINE_BIMODAL_PREDICTOR_HPP
