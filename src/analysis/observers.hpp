/**
 * @file
 * The built-in run-analysis observers:
 *
 *  - IntervalObserver            windowed per-class statistics — the
 *                                time-local view of Sec. 5.1
 *  - ConfidenceHistogramObserver per-class / per-level counter and
 *                                taken-direction distributions
 *  - PerBranchObserver           per-PC accuracy profiles with a
 *                                bounded hard-to-predict top-N table
 *  - WarmupObserver              first-interval-below-threshold
 *                                warming-phase detection
 *
 * Construct them directly, or declaratively through AnalysisConfig /
 * buildObservers() (analysis/analysis_config.hpp).
 */

#ifndef TAGECON_ANALYSIS_OBSERVERS_HPP
#define TAGECON_ANALYSIS_OBSERVERS_HPP

#include <algorithm>
#include <unordered_map>

#include "analysis/run_observer.hpp"

namespace tagecon {

/**
 * Splits the stream into fixed-length windows and keeps a ClassStats
 * per window. Sec. 5.1 attributes the BIM-class mispredictions to the
 * predictor's warming phase and to capacity-problem phases, both
 * time-local effects a whole-trace average hides. The partial tail
 * window, when any, is appended after the complete ones.
 */
class IntervalObserver : public RunObserver
{
  public:
    /** @param interval_length Predictions per interval; must be > 0. */
    explicit IntervalObserver(uint64_t interval_length);

    std::string name() const override { return "intervals"; }

    void
    onPrediction(const ObservedPrediction& o) override
    {
        current_.record(o.prediction.cls, o.mispredicted,
                        o.instructions);
        if (++inCurrent_ == length_) {
            done_.push_back(current_);
            current_ = ClassStats{};
            inCurrent_ = 0;
        }
    }

    void finish(RunAnalysis& out) override;

  private:
    uint64_t length_;
    uint64_t inCurrent_ = 0;
    ClassStats current_;
    std::vector<ClassStats> done_;
};

/**
 * Per-class and per-level prediction / misprediction counters with the
 * predicted-taken split. Class and level totals are the run's
 * ClassStats totals by construction.
 */
class ConfidenceHistogramObserver : public RunObserver
{
  public:
    std::string name() const override { return "histogram"; }

    void
    onPrediction(const ObservedPrediction& o) override
    {
        const size_t ci = classIndex(o.prediction.cls);
        const size_t li = levelIndex(o.prediction.confidence);
        ++histogram_.predictions[ci];
        ++histogram_.levelPredictions[li];
        if (o.prediction.taken)
            ++histogram_.takenPredictions[ci];
        if (o.mispredicted) {
            ++histogram_.mispredictions[ci];
            ++histogram_.levelMispredictions[li];
            if (o.prediction.taken)
                ++histogram_.takenMispredictions[ci];
        }
    }

    void finish(RunAnalysis& out) override;

    /** The histogram accumulated so far. */
    const ConfidenceHistogram& histogram() const { return histogram_; }

  private:
    ConfidenceHistogram histogram_;
};

/**
 * BIM misprediction-distance histogram (Sec. 5.1.2): tracks, for each
 * BIM-provided prediction, how many BIM predictions have passed since
 * the most recent BIM-provided misprediction, and accumulates
 * predictions/mispredictions per distance. Distances at or beyond
 * max_distance share the overflow bucket. Tagged-provider predictions
 * neither count as distance steps nor reset the counter — the distance
 * is measured in BIM predictions, as in the paper's burst window.
 */
class BurstObserver : public RunObserver
{
  public:
    /** @param max_distance Last distinct bucket; must be > 0. */
    explicit BurstObserver(uint64_t max_distance = 16);

    std::string name() const override { return "burst"; }

    void
    onPrediction(const ObservedPrediction& o) override
    {
        const PredictionClass c = o.prediction.cls;
        const bool bim_provided = c == PredictionClass::HighConfBim ||
                                  c == PredictionClass::LowConfBim ||
                                  c == PredictionClass::MediumConfBim;
        if (!bim_provided)
            return;
        const size_t d = static_cast<size_t>(
            std::min<uint64_t>(distance_, maxDistance_));
        ++histogram_.predictions[d];
        if (o.mispredicted) {
            ++histogram_.mispredictions[d];
            distance_ = 0;
        } else if (distance_ < maxDistance_) {
            ++distance_;
        }
    }

    void finish(RunAnalysis& out) override;

    /** The histogram accumulated so far. */
    const BurstAnalysis& histogram() const { return histogram_; }

  private:
    uint64_t maxDistance_;
    uint64_t distance_; // starts "far" from any miss
    BurstAnalysis histogram_;
};

/**
 * Per-static-branch accuracy profiles. The full per-PC map is kept
 * during the run; finish() distills it into the bounded top-N
 * hard-to-predict table ordered by (mispredictions desc, predictions
 * asc, pc asc) — a total order, so output is deterministic whatever
 * the hash-map iteration order.
 */
class PerBranchObserver : public RunObserver
{
  public:
    /** @param top_n Rows kept in the hard-to-predict table. */
    explicit PerBranchObserver(uint64_t top_n = 16) : topN_(top_n) {}

    std::string name() const override { return "perbranch"; }

    void
    onPrediction(const ObservedPrediction& o) override
    {
        Counts& c = branches_[o.pc];
        ++c.predictions;
        if (o.mispredicted)
            ++c.mispredictions;
    }

    void finish(RunAnalysis& out) override;

    /** Distinct PCs seen so far. */
    uint64_t distinctBranches() const { return branches_.size(); }

  private:
    struct Counts {
        uint64_t predictions = 0;
        uint64_t mispredictions = 0;
    };

    uint64_t topN_;
    std::unordered_map<uint64_t, Counts> branches_;
};

/**
 * Warming-phase detector: watches the misprediction rate of
 * fixed-length intervals and reports the first complete interval whose
 * rate falls below the threshold — the storage-free proxy for "the
 * predictor has warmed" that Sec. 5.1 attributes the early BIM-class
 * mispredictions to.
 */
class WarmupObserver : public RunObserver
{
  public:
    /**
     * @param interval_length Predictions per detection interval (> 0).
     * @param threshold_mkp   Warm threshold in misp/kilo-prediction.
     */
    WarmupObserver(uint64_t interval_length, double threshold_mkp);

    std::string name() const override { return "warmup"; }

    void onPrediction(const ObservedPrediction& o) override;

    void finish(RunAnalysis& out) override;

  private:
    void closeInterval();

    uint64_t length_;
    double thresholdMkp_;

    uint64_t inCurrent_ = 0;
    uint64_t currentMisses_ = 0;
    uint64_t completed_ = 0;

    bool converged_ = false;
    uint64_t warmupIntervals_ = 0;
    double firstIntervalMkp_ = 0.0;
    double convergedIntervalMkp_ = 0.0;
};

} // namespace tagecon

#endif // TAGECON_ANALYSIS_OBSERVERS_HPP
