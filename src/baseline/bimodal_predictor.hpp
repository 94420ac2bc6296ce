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

#include "util/saturating_counter.hpp"
#include "util/state_io.hpp"

namespace tagecon {

/** Stand-alone bimodal predictor with Smith-style self-confidence. */
class BimodalPredictor
{
  public:
    /**
     * @param log_entries log2 of the table size.
     * @param ctr_bits Counter width (2 in the classic design).
     */
    explicit BimodalPredictor(int log_entries, int ctr_bits = 2);

    bool predict(uint64_t pc);
    void update(uint64_t pc, bool taken);
    uint64_t storageBits() const;

    /**
     * Smith self-confidence for the branch at @p pc: high confidence
     * iff the counter is not weak.
     */
    bool highConfidence(uint64_t pc) const;

    /** Snapshot of the counter backing @p pc (tests / introspection). */
    UnsignedSatCounter counterFor(uint64_t pc) const;

    /** Serialize geometry fingerprint + counter table. */
    void saveState(StateWriter& out) const;

    /**
     * Restore state written by saveState() on an identical geometry.
     * Returns false with the reason in @p error on mismatch/underrun.
     */
    bool loadState(StateReader& in, std::string& error);

  private:
    uint32_t indexFor(uint64_t pc) const;

    /** Packed counters: one byte per entry, width held in ctrBits_. */
    std::vector<uint8_t> table_;
    int logEntries_;
    int ctrBits_;
};

} // namespace tagecon

#endif // TAGECON_BASELINE_BIMODAL_PREDICTOR_HPP
