/**
 * @file
 * Configuration of a TAGE predictor instance, including the three
 * storage budgets evaluated in the paper (Table 1): 16Kbit (1+4
 * tables, history 3..80), 64Kbit (1+7 tables, history 5..130) and
 * 256Kbit (1+8 tables, history 5..300). As in the paper, all tagged
 * tables of a configuration have the same number of entries and the
 * bimodal hysteresis bits are not shared.
 */

#ifndef TAGECON_TAGE_TAGE_CONFIG_HPP
#define TAGECON_TAGE_TAGE_CONFIG_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "util/errors.hpp"

namespace tagecon {

/** Upper bound on tagged tables supported by the implementation. */
inline constexpr int kMaxTaggedTables = 16;

/**
 * The shape parameters the paper's named budgets are generated from:
 * uniform tagged tables over a geometric history series. Kept as an
 * explicit struct so the registry can override individual fields
 * ("tage64k:tables=8,maxhist=300") and rebuild the series.
 */
struct TageGeometry {
    /** log2 of the bimodal (base) table entry count. */
    int logBimodalEntries = 12;

    /** Number of tagged components. */
    int numTables = 7;

    /** log2 of entries per tagged table. */
    int logEntries = 9;

    /** Partial tag width in bits. */
    int tagBits = 10;

    /** Shortest history length L(1). */
    int minHistory = 5;

    /** Longest history length L(M). */
    int maxHistory = 130;
};

/** Geometry of one tagged TAGE component. */
struct TageTableConfig {
    /** log2 of the number of entries. */
    int logEntries = 9;

    /** Width of the partial tag in bits. */
    int tagBits = 10;

    /** Global history length L(i) hashed into index and tag. */
    int historyLength = 5;
};

/**
 * Full TAGE predictor configuration. Construct via the named factory
 * functions for the paper's three budgets, or fill the fields directly
 * for ablations.
 */
struct TageConfig {
    /** Display name ("16K", "64K", "256K", or custom). */
    std::string name = "custom";

    /** log2 of the bimodal (base) table entry count. */
    int logBimodalEntries = 12;

    /** Bimodal counter width; 2 bits in the paper. */
    int bimodalCtrBits = 2;

    /** Tagged components, ordered T1 (shortest history) .. TM. */
    std::vector<TageTableConfig> tagged;

    /** Tagged prediction counter width; 3 bits in the paper. */
    int taggedCtrBits = 3;

    /** Useful counter width; 2 bits in the paper. */
    int usefulBits = 2;

    /** Path history register width mixed into the index hash. */
    int pathHistoryBits = 16;

    /** USE_ALT_ON_NA counter width (signed); 4 bits in the paper. */
    int useAltOnNaBits = 4;

    /**
     * Updates between graceful useful-counter resets (each reset is a
     * one-bit right shift of every u counter, Sec. 3.2).
     */
    uint64_t uResetPeriod = 1u << 18;

    /** Right-shift applied to the PC before hashing. */
    int instShift = 0;

    /**
     * Enable the USE_ALT_ON_NA mechanism (Sec. 3.1): on a weak provider
     * entry, dynamically choose between provider and alternate
     * prediction. Disabled only by the ablation bench.
     */
    bool useAltOnNa = true;

    // --- Modified automaton (Sec. 6) --------------------------------------
    /**
     * Enable the probabilistic saturation automaton: on a correct
     * prediction, a tagged counter at max-1 / min+1 only advances into
     * the saturated state with probability 1 / 2^satLog2Prob.
     */
    bool probabilisticSaturation = false;

    /** log2 of the inverse saturation probability; 7 -> p = 1/128. */
    unsigned satLog2Prob = 7;

    /**
     * Geometric history series L(i) = round(min * (max/min)^((i-1)/(n-1)))
     * as introduced for the O-GEHL predictor and used by TAGE; asserts
     * checkHistorySpan().
     */
    static std::vector<int> geometricHistories(int min_hist, int max_hist,
                                               int n);

    /**
     * Err(BadSpec) unless @p n strictly increasing lengths fit in
     * [min_hist, max_hist]; the span check of TAGE and O-GEHL alike.
     */
    static Err checkHistorySpan(int min_hist, int max_hist, int n);

    /**
     * Build a config from a geometry: uniform tagged tables with a
     * geometric history series, exactly how the named budgets below
     * are generated; TagePredictor asserts validate() on it.
     */
    static TageConfig fromGeometry(std::string name,
                                   const TageGeometry& g);

    /** Generation shape of the named budgets. */
    static TageGeometry geometry16K();
    static TageGeometry geometry64K();
    static TageGeometry geometry256K();

    /** The paper's small configuration: ~16Kbit, 1+4 tables, 3..80. */
    static TageConfig small16K();

    /** The paper's medium configuration: ~64Kbit, 1+7 tables, 5..130. */
    static TageConfig medium64K();

    /** The paper's large configuration: ~256Kbit, 1+8 tables, 5..300. */
    static TageConfig large256K();

    /** All three paper configurations, small to large. */
    static std::vector<TageConfig> paperConfigs();

    /** Total storage in bits (prediction tables only). */
    uint64_t storageBits() const;

    /** Number of tagged components. */
    int numTaggedTables() const { return static_cast<int>(tagged.size()); }

    /** Longest history used by any component. */
    int maxHistoryLength() const;

    /**
     * The one copy of the config checks: Err(BadSpec) naming the first
     * that fails. The registry reports it; TagePredictor asserts it.
     */
    Err validate() const;

    /** A copy of this config with the Sec. 6 automaton enabled. */
    TageConfig withProbabilisticSaturation(unsigned log2_prob = 7) const;
};

} // namespace tagecon

#endif // TAGECON_TAGE_TAGE_CONFIG_HPP
