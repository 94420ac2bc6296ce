/**
 * @file
 * Typed result bag the run-analysis observers fill: every observer
 * attached to a run writes its slice into the RunResult's RunAnalysis,
 * so time-local (interval), class-local (histogram), branch-local
 * (per-PC) and phase-local (warmup) views ride back through runTrace /
 * runSweep next to the whole-trace ClassStats — bit-identically at any
 * thread count, because observers are built fresh per cell and fed in
 * stream order.
 *
 * Each observer of the analysis_config.hpp table owns one typed slot.
 */

#ifndef TAGECON_ANALYSIS_RUN_ANALYSIS_HPP
#define TAGECON_ANALYSIS_RUN_ANALYSIS_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/class_stats.hpp"
#include "core/prediction_class.hpp"

namespace tagecon {

/** Windowed per-class statistics (IntervalObserver). */
struct IntervalAnalysis {
    /** Predictions per interval. */
    uint64_t intervalLength = 0;

    /**
     * Per-interval statistics in stream order. When the stream length
     * is not a multiple of intervalLength the last entry is the
     * partial tail interval (see completeIntervals).
     */
    std::vector<ClassStats> intervals;

    /** Number of full-length intervals at the front of intervals. */
    size_t completeIntervals = 0;

    /** True when a partial tail interval was appended. */
    bool
    hasPartialTail() const
    {
        return intervals.size() > completeIntervals;
    }
};

/**
 * Per-class / per-level counter distributions with the taken split
 * (ConfidenceHistogramObserver). Class- and level-indexed totals are
 * exactly the run's ClassStats totals.
 */
struct ConfidenceHistogram {
    /** Predictions graded into each of the 7 classes. */
    std::array<uint64_t, kNumPredictionClasses> predictions{};

    /** Mispredictions per class. */
    std::array<uint64_t, kNumPredictionClasses> mispredictions{};

    /** Predicted-taken predictions per class. */
    std::array<uint64_t, kNumPredictionClasses> takenPredictions{};

    /** Predicted-taken mispredictions per class. */
    std::array<uint64_t, kNumPredictionClasses> takenMispredictions{};

    /** Predictions per 3-way confidence level (High/Medium/Low). */
    std::array<uint64_t, 3> levelPredictions{};

    /** Mispredictions per confidence level. */
    std::array<uint64_t, 3> levelMispredictions{};

    /** Total predictions over all classes. */
    uint64_t
    totalPredictions() const
    {
        uint64_t n = 0;
        for (const auto v : predictions)
            n += v;
        return n;
    }

    /** Total mispredictions over all classes. */
    uint64_t
    totalMispredictions() const
    {
        uint64_t n = 0;
        for (const auto v : mispredictions)
            n += v;
        return n;
    }

    /** Sum both histograms (pooling across traces). */
    void
    merge(const ConfidenceHistogram& o)
    {
        for (size_t i = 0; i < kNumPredictionClasses; ++i) {
            predictions[i] += o.predictions[i];
            mispredictions[i] += o.mispredictions[i];
            takenPredictions[i] += o.takenPredictions[i];
            takenMispredictions[i] += o.takenMispredictions[i];
        }
        for (size_t i = 0; i < 3; ++i) {
            levelPredictions[i] += o.levelPredictions[i];
            levelMispredictions[i] += o.levelMispredictions[i];
        }
    }
};

/** One static branch's accuracy profile (PerBranchObserver). */
struct BranchProfile {
    uint64_t pc = 0;
    uint64_t predictions = 0;
    uint64_t mispredictions = 0;

    /** Misprediction rate in mispredictions per kilo-prediction. */
    double
    mprateMkp() const
    {
        return predictions == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(mispredictions) /
                         static_cast<double>(predictions);
    }
};

/** Per-static-branch view with a bounded hard-to-predict top table. */
struct PerBranchAnalysis {
    /** Distinct branch PCs seen in the stream. */
    uint64_t distinctBranches = 0;

    /** The top-N cap the table was built with. */
    uint64_t requestedTopN = 0;

    /**
     * The (up to) N branches with the most mispredictions, ordered by
     * (mispredictions desc, predictions asc, pc asc) — a total,
     * deterministic order, so parallel sweeps stay bit-identical.
     */
    std::vector<BranchProfile> top;
};

/**
 * BIM misprediction-distance histogram (BurstObserver): for each
 * distance d (in BIM-provided predictions) from the most recent
 * BIM-provided misprediction, the BIM predictions and mispredictions
 * at that distance — the Sec. 5.1.2 decay curve behind the
 * medium-conf-bim class. The last bucket aggregates every distance
 * >= maxDistance.
 */
struct BurstAnalysis {
    /** Bucket count is maxDistance + 1 (the overflow bucket). */
    uint64_t maxDistance = 16;

    /** BIM predictions at each distance, indexed 0..maxDistance. */
    std::vector<uint64_t> predictions;

    /** BIM mispredictions at each distance. */
    std::vector<uint64_t> mispredictions;

    /** Total BIM predictions over all distances. */
    uint64_t
    totalPredictions() const
    {
        uint64_t n = 0;
        for (const auto v : predictions)
            n += v;
        return n;
    }

    /** Sum both histograms (pooling across traces; same maxDistance). */
    void
    merge(const BurstAnalysis& o)
    {
        if (predictions.empty()) {
            *this = o;
            return;
        }
        for (size_t i = 0;
             i < predictions.size() && i < o.predictions.size(); ++i) {
            predictions[i] += o.predictions[i];
            mispredictions[i] += o.mispredictions[i];
        }
    }
};

/** Warming-phase summary (WarmupObserver). */
struct WarmupAnalysis {
    /** Predictions per detection interval. */
    uint64_t intervalLength = 0;

    /** Threshold in mispredictions per kilo-prediction. */
    double thresholdMkp = 0.0;

    /** True when some complete interval ran below the threshold. */
    bool converged = false;

    /** Index of the first below-threshold interval (when converged). */
    uint64_t warmupIntervals = 0;

    /** Branches consumed before that interval started. */
    uint64_t warmupBranches = 0;

    /** MKP of the stream's first complete interval (the cold spike). */
    double firstIntervalMkp = 0.0;

    /** MKP of the first below-threshold interval (when converged). */
    double convergedIntervalMkp = 0.0;
};

/**
 * The analysis bag carried by RunResult. Absent observers leave their
 * slot disengaged; empty() is true for plain runs.
 */
struct RunAnalysis {
    std::optional<IntervalAnalysis> intervals;
    std::optional<ConfidenceHistogram> histogram;
    std::optional<BurstAnalysis> burst;
    std::optional<PerBranchAnalysis> perBranch;
    std::optional<WarmupAnalysis> warmup;

    bool
    empty() const
    {
        return !intervals && !histogram && !burst && !perBranch &&
               !warmup;
    }
};

} // namespace tagecon

#endif // TAGECON_ANALYSIS_RUN_ANALYSIS_HPP
