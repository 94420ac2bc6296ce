/**
 * @file
 * The traced replay: the same work as runSweep() / ServingEngine::serve()
 * at jobs=1, driven through the layers' public functions in the
 * engine's order, with one benchmark-side obs::SpanScope per call and
 * per 512- or 64-branch chunk (never per branch). Span names are
 * "<layer>.<call>", so a span's layer is the text before its first dot:
 *
 *   trace  openTraceSource(), TraceSource::next() batch fills
 *   tage   predictMany(), predict()+update(), snapshot(), restore()
 *   core   ClassStats::record() + BinaryConfidenceMetrics::record()
 *   sim    tryMakePredictor(); "sim.cell" is runTrace()'s drive loop
 *   serve  "serve.turn": the engine's scheduling and pool bookkeeping
 *
 * The span id is the cell index or the stream id. The replay's
 * per-cell and per-stream results must equal the engine's.
 */

#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "serve/serving_engine.hpp"
#include "sim/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {

/** What the replay saw besides its spans. */
struct ReplayStats {
    /** Branches through predictMany() and through predict()+update(). */
    uint64_t batchedBranches = 0;
    uint64_t scalarBranches = 0;

    /** Serve only: predictors made for streams (the engine's admissions). */
    uint64_t admissions = 0;

    /** snapshot() calls and the bytes they wrote. */
    uint64_t snapshots = 0;
    uint64_t snapshotBytes = 0;

    /** High-water mark of the parked blobs' total size. */
    uint64_t parkedPeakBytes = 0;
};

/** Replay every cell of a validated @p plan, in plan.cells() order. */
std::vector<UnitResult> replaySweep(const tagecon::SweepPlan& plan,
                                    ReplayStats& stats);

/**
 * Replay a one-worker serve of @p streams under validated options
 * @p opts: shards in index order, streams round-robin within a shard,
 * FIFO eviction at the pool cap. Results are in @p streams order.
 */
std::vector<UnitResult>
replayServe(const std::vector<tagecon::StreamDesc>& streams,
            const tagecon::ServeOptions& opts, ReplayStats& stats);

/**
 * The output-check oracle: the scalar predict()/update() loop over a
 * fresh openTraceSource(), with the predictor snapshotted at the
 * midpoint and restored into a freshly made one, which must continue
 * bit-identically. ok is false when any call fails. @p id tags the
 * spans.
 */
UnitResult oracle(const UnitRecipe& recipe, uint64_t id,
                  ReplayStats& stats);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HPP
