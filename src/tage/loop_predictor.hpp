/**
 * @file
 * The L-TAGE loop predictor (Seznec, "The L-TAGE branch predictor",
 * JILP 2007 / CBP-2 — reference [12] of the paper): a small side table
 * that identifies loops with constant trip counts and predicts their
 * exits exactly, including trip counts far beyond any global-history
 * window. GradedTage attaches it as L-TAGE's loop part.
 */

#ifndef TAGECON_TAGE_LOOP_PREDICTOR_HPP
#define TAGECON_TAGE_LOOP_PREDICTOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "util/state_io.hpp"

namespace tagecon {

/**
 * Direct-mapped loop predictor. Each entry tracks one branch's trip
 * count; after the same count has been observed `confMax` consecutive
 * times, the entry predicts the exit iteration exactly.
 */
class LoopPredictor
{
  public:
    struct Config {
        /** log2 of the number of entries. */
        int logEntries = 6;

        /** Partial tag width. */
        int tagBits = 14;

        /** Iteration counter width (max trackable trip count). */
        int iterBits = 10;

        /** Confidence counter width (saturate => trust). */
        int confBits = 2;

        /** Age counter width (replacement damping). */
        int ageBits = 8;
    };

    /** Outcome of a lookup. */
    struct Result {
        /** True when a confident entry provides a prediction. */
        bool valid = false;

        /** Predicted direction (exact exit prediction). */
        bool taken = false;
    };

    LoopPredictor();
    explicit LoopPredictor(Config cfg);

    /** Query the loop predictor for the branch at @p pc. */
    Result lookup(uint64_t pc) const;

    /**
     * Train with the resolved outcome.
     * @param pc Branch address.
     * @param taken Architectural outcome.
     * @param main_mispredicted True when the main (TAGE) prediction
     *        was wrong — misses only allocate on that hint, as in
     *        L-TAGE.
     */
    void update(uint64_t pc, bool taken, bool main_mispredicted);

    /** Storage cost in bits. */
    uint64_t storageBits() const;

    /** The configuration in use. */
    const Config& config() const { return cfg_; }

    /** Number of confident entries (introspection / tests). */
    int confidentEntries() const;

    /** Forget every entry. */
    void reset();

    /** Serialize the table, prefixed by a geometry fingerprint. */
    void saveState(StateWriter& out) const;

    /**
     * Restore state written by saveState(). Returns false (leaving the
     * table reset()) with the reason in @p error when the blob is
     * truncated, from another geometry, or carries an entry update()
     * never writes.
     */
    bool loadState(StateReader& in, std::string& error);

  private:
    struct Entry {
        uint16_t tag = 0;
        uint16_t pastIter = 0;
        uint16_t currentIter = 0;
        uint8_t confidence = 0;
        uint8_t age = 0;
        bool dir = false; ///< direction of the loop-continue outcome
        bool inUse = false;

        bool operator==(const Entry&) const = default;
    };

    uint32_t indexFor(uint64_t pc) const;
    uint16_t tagFor(uint64_t pc) const;

    Config cfg_;
    std::vector<Entry> entries_;
    unsigned confMax_;
    unsigned ageMax_;
    unsigned iterMax_;
};

} // namespace tagecon

#endif // TAGECON_TAGE_LOOP_PREDICTOR_HPP
