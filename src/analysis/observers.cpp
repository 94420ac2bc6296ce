#include "analysis/observers.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace tagecon {

IntervalObserver::IntervalObserver(uint64_t interval_length)
    : length_(interval_length)
{
    TAGECON_ASSERT(interval_length > 0,
                   "interval length must be positive");
}

void
IntervalObserver::finish(RunAnalysis& out)
{
    IntervalAnalysis ia;
    ia.intervalLength = length_;
    ia.intervals = std::move(done_);
    ia.completeIntervals = ia.intervals.size();
    if (current_.totalPredictions() > 0)
        ia.intervals.push_back(current_);
    out.intervals = std::move(ia);
}

void
ConfidenceHistogramObserver::finish(RunAnalysis& out)
{
    out.histogram = histogram_;
}

BurstObserver::BurstObserver(uint64_t max_distance)
    : maxDistance_(max_distance), distance_(max_distance)
{
    TAGECON_ASSERT(max_distance > 0,
                   "burst max distance must be positive");
    histogram_.maxDistance = max_distance;
    histogram_.predictions.assign(
        static_cast<size_t>(max_distance) + 1, 0);
    histogram_.mispredictions.assign(
        static_cast<size_t>(max_distance) + 1, 0);
}

void
BurstObserver::finish(RunAnalysis& out)
{
    out.burst = histogram_;
}

void
PerBranchObserver::finish(RunAnalysis& out)
{
    PerBranchAnalysis pa;
    pa.distinctBranches = branches_.size();
    pa.requestedTopN = topN_;

    std::vector<BranchProfile> all;
    all.reserve(branches_.size());
    for (const auto& [pc, c] : branches_)
        all.push_back(BranchProfile{pc, c.predictions, c.mispredictions});

    // Total order: most mispredictions first; equal mispredictions over
    // fewer predictions (higher rate) first; the PC breaks exact ties,
    // so the table is identical whatever the hash-map iteration order.
    auto harder = [](const BranchProfile& a, const BranchProfile& b) {
        if (a.mispredictions != b.mispredictions)
            return a.mispredictions > b.mispredictions;
        if (a.predictions != b.predictions)
            return a.predictions < b.predictions;
        return a.pc < b.pc;
    };
    const size_t keep =
        std::min<size_t>(topN_, all.size());
    std::partial_sort(all.begin(), all.begin() + keep, all.end(),
                      harder);
    all.resize(keep);
    pa.top = std::move(all);
    out.perBranch = std::move(pa);
}

WarmupObserver::WarmupObserver(uint64_t interval_length,
                               double threshold_mkp)
    : length_(interval_length), thresholdMkp_(threshold_mkp)
{
    TAGECON_ASSERT(interval_length > 0,
                   "warmup interval length must be positive");
}

void
WarmupObserver::onPrediction(const ObservedPrediction& o)
{
    ++inCurrent_;
    if (o.mispredicted)
        ++currentMisses_;
    if (inCurrent_ == length_)
        closeInterval();
}

void
WarmupObserver::closeInterval()
{
    const double mkp = 1000.0 * static_cast<double>(currentMisses_) /
                       static_cast<double>(length_);
    if (completed_ == 0)
        firstIntervalMkp_ = mkp;
    if (!converged_ && mkp < thresholdMkp_) {
        converged_ = true;
        warmupIntervals_ = completed_;
        convergedIntervalMkp_ = mkp;
    }
    ++completed_;
    inCurrent_ = 0;
    currentMisses_ = 0;
}

void
WarmupObserver::finish(RunAnalysis& out)
{
    WarmupAnalysis wa;
    wa.intervalLength = length_;
    wa.thresholdMkp = thresholdMkp_;
    wa.converged = converged_;
    wa.warmupIntervals = warmupIntervals_;
    wa.warmupBranches = warmupIntervals_ * length_;
    wa.firstIntervalMkp = firstIntervalMkp_;
    wa.convergedIntervalMkp = convergedIntervalMkp_;
    out.warmup = wa;
}

} // namespace tagecon
