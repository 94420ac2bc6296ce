/**
 * @file
 * The run-analysis observer interface. runTrace() feeds every graded,
 * resolved prediction to the observers attached to the run; each
 * observer accumulates its own view and writes it into the run's
 * RunAnalysis bag when the trace ends.
 *
 * The drive kernel (driveBranches(), sim/experiment.hpp) hands each
 * element of a predictMany() chunk to the observers of the sink that
 * predicted it, in stream order, after the sink's ClassStats have
 * recorded it and after the chunk has trained its predictor. That is
 * equivalent to observing each branch between its predict and its
 * update, because observers see only the stream — never the predictor
 * — and every observer total stays consistent with the whole-trace
 * statistics by construction. When several predictors share a chunk
 * (the cells of one sweep column), each has its own pipeline, fed
 * exactly what it would be fed driven alone.
 *
 * Built-in observers live in analysis/observers.hpp; selection and
 * construction go through AnalysisConfig (analysis/analysis_config.hpp)
 * so every sweep cell gets a fresh, independent pipeline per run —
 * the property that keeps parallel sweeps bit-identical to serial.
 */

#ifndef TAGECON_ANALYSIS_RUN_OBSERVER_HPP
#define TAGECON_ANALYSIS_RUN_OBSERVER_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/run_analysis.hpp"
#include "core/graded_predictor.hpp"

namespace tagecon {

/** One graded, resolved prediction as delivered to observers. */
struct ObservedPrediction {
    /** Branch address. */
    uint64_t pc = 0;

    /** The grade the predictor produced at predict time. */
    Prediction prediction;

    /** Resolved direction. */
    bool taken = false;

    /** prediction.taken != taken. */
    bool mispredicted = false;

    /** Instructions retired by this record (non-branch preds + 1). */
    uint64_t instructions = 0;

    /** 0-based position in the branch stream. */
    uint64_t index = 0;
};

/**
 * A pluggable consumer of the graded prediction stream. Implementations
 * must be deterministic functions of the stream alone (no clocks, no
 * global state): one observer instance observes exactly one run.
 */
class RunObserver
{
  public:
    virtual ~RunObserver() = default;

    /** Observer name (the token it is selected by). */
    virtual std::string name() const = 0;

    /** Observe one graded, resolved prediction, in stream order. */
    virtual void onPrediction(const ObservedPrediction& o) = 0;

    /**
     * The trace ended: write this observer's results into @p out.
     * Called exactly once, after the last onPrediction().
     */
    virtual void finish(RunAnalysis& out) = 0;
};

/** An observer pipeline: fed in order, finished in order. */
using ObserverList = std::vector<std::unique_ptr<RunObserver>>;

} // namespace tagecon

#endif // TAGECON_ANALYSIS_RUN_OBSERVER_HPP
