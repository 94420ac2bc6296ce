/**
 * @file
 * Trace-driven experiment driver. One drive kernel — driveBranches() —
 * steps any GradedPredictor built by hand or through the registry
 * (sim/registry.hpp) over any TraceSource in predictMany() chunks,
 * folding each branch into the per-class statistics every table and
 * figure of the paper is built from. That ClassStats is the only
 * per-branch accumulator: the 3-level split and the binary (high/low)
 * confusion the comparison benches score with are views of it
 * (BinaryConfidenceMetrics::fromClassStats()).
 *
 * The kernel feeds a span of sinks, each a predictor with its own
 * stats and observers, from one fill() per chunk. Its
 * callers: runTrace(), with one predictor, or with several in
 * lockstep when the sweep runs a column of cells over one trace
 * (sim/sweep.hpp), and the serving engine's scheduling turn, with the
 * stream's one predictor. Among several, the TAGE stacks of one lookup
 * geometry form a lookup group: the first indexes each block, and the
 * others resolve it from its lookup rows (TagePredictor::follow()).
 */

#ifndef TAGECON_SIM_EXPERIMENT_HPP
#define TAGECON_SIM_EXPERIMENT_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/analysis_config.hpp"
#include "analysis/run_analysis.hpp"
#include "analysis/run_observer.hpp"
#include "core/binary_metrics.hpp"
#include "core/class_stats.hpp"
#include "core/graded_predictor.hpp"
#include "trace/profiles.hpp"
#include "trace/trace_source.hpp"

namespace tagecon {

/** Outcome of simulating one trace. */
struct RunResult {
    std::string traceName;

    /** Predictor display name (the registry spec for spec-built runs). */
    std::string configName;

    /** Per-class and total statistics. */
    ClassStats stats;

    /**
     * BinaryConfidenceMetrics::fromClassStats(stats), filled once when
     * the run ends. Kept as a field for perfbench/, which reads it;
     * other callers derive the confusion from the stats they hold.
     */
    BinaryConfidenceMetrics confusion;

    /** Final log2(1/p) (only interesting for adaptive runs). */
    unsigned finalLog2Prob = 0;

    /** Tagged entry allocations performed by the predictor. */
    uint64_t allocations = 0;

    /** Predictor storage in bits, including any attached estimator. */
    uint64_t storageBits = 0;

    /**
     * Results of the run-analysis observers attached to the run
     * (empty for plain runs).
     */
    RunAnalysis analysis;
};

/** Reusable buffers of one driveBranches() chunk (512 branches). */
struct DriveChunk {
    DriveChunk();

    /** The chunk as one TraceSource::fill() call wrote it. */
    std::vector<BranchRecord> records;
    /** Its pcs and outcomes, laid out as predictMany() takes them. */
    std::vector<uint64_t> pcs;
    std::vector<uint8_t> taken;
    std::vector<Prediction> preds;
};

/**
 * One consumer of a drive: a predictor, the statistics its
 * predictions fold into and the observers that see them. Borrowed
 * pointers; each sink owns none of them.
 */
struct DriveSink {
    GradedPredictor* predictor = nullptr;
    ClassStats* stats = nullptr;

    /** Fed each element in stream order; may be empty. */
    std::span<const std::unique_ptr<RunObserver>> observers;

    /**
     * The sinks right after this one whose TAGE predictors follow
     * this one's lookup rows (TagePredictor::follow()); 0 when none.
     */
    size_t followers = 0;
};

/**
 * The drive kernel: fill @p chunk from @p trace with one
 * TraceSource::fill() call, then, sink after sink in span order, step
 * the chunk through the sink's predictor.predictMany() (bit-identical
 * to the scalar predict/update loop by contract), fold each element
 * into its stats and hand the elements, in order, to its observers —
 * repeated until @p max_branches branches were consumed or the trace
 * ended. A sink with followers and its followers step together
 * instead, one TagePredictor::kBatchBlock block at a time, the leader
 * first, so each follower resolves a block while the leader's rows
 * are still in L1. Every sink thus sees the records it would see
 * driven alone, and memory stays at one chunk however many sinks
 * share it. Observers see each element after its chunk (or block) has
 * trained, which is equivalent because they see only the stream;
 * their index counts from 0 at this call.
 *
 * Returns the branches consumed. A short count means the trace ended —
 * cleanly or not: the caller checks trace.lastError().
 */
uint64_t driveBranches(TraceSource& trace, std::span<const DriveSink> sinks,
                       uint64_t max_branches, DriveChunk& chunk);

/**
 * Simulate @p trace (from its current position) on @p predictor with
 * the run-analysis pipeline described by @p analysis built fresh for
 * this run; each observer's results land in RunResult::analysis.
 *
 * A trace that fails mid-stream ends the run early: callers check
 * trace.lastError() afterwards.
 */
RunResult runTrace(TraceSource& trace, GradedPredictor& predictor,
                   const AnalysisConfig& analysis = {});

/**
 * Simulate @p trace once for every predictor of @p predictors (distinct
 * objects) in lockstep, each with its own pipeline built from
 * @p analysis: result k equals what runTrace(trace, *predictors[k],
 * analysis) returns on its own copy of the trace, and the trace is
 * generated or read once.
 *
 * The TAGE stacks (GradedPredictor::tagePredictor()) of one lookup
 * geometry (TageConfig::sameLookupGeometry()) that stand at the same
 * point of their streams (TagePredictor::canFollow(); fresh
 * predictors always do) form a lookup group: the first in span order
 * indexes each block and the others follow its rows for the drive,
 * then take its histories, so every predictor ends in the state,
 * snapshot() bytes included, of a solo run. Each follower adds one to
 * the sweep.cells.following counter.
 */
std::vector<RunResult>
runTrace(TraceSource& trace, std::span<GradedPredictor* const> predictors,
         const AnalysisConfig& analysis = {});

} // namespace tagecon

#endif // TAGECON_SIM_EXPERIMENT_HPP
