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

#include "util/saturating_counter.hpp"
#include "util/state_io.hpp"

namespace tagecon {

/** Classic gshare predictor. */
class GsharePredictor
{
  public:
    /**
     * @param log_entries log2 of the counter table size.
     * @param history_bits Global history bits mixed into the index;
     *        histories longer than log_entries are folded in
     *        log_entries-bit chunks (so the parameter is honored, not
     *        clamped).
     * @param ctr_bits Counter width.
     */
    GsharePredictor(int log_entries, int history_bits, int ctr_bits = 2);

    bool predict(uint64_t pc);
    void update(uint64_t pc, bool taken);
    uint64_t storageBits() const;

    /** Current global history register value. */
    uint64_t history() const { return history_; }

    /** Index used for @p pc with the current history (tests). */
    uint32_t indexFor(uint64_t pc) const;

    /** Serialize geometry fingerprint + counter table + history. */
    void saveState(StateWriter& out) const;

    /**
     * Restore state written by saveState() on an identical geometry.
     * Returns false with the reason in @p error on mismatch/underrun.
     */
    bool loadState(StateReader& in, std::string& error);

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
