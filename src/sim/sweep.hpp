/**
 * @file
 * Declarative (spec x trace) sweep grids and a parallel runner.
 *
 * Every table and figure of the paper is a grid of (predictor config x
 * trace) cells, and the registry makes each cell a pure function of
 * its strings: a SweepCell names a spec, a trace, a branch count and a
 * seed salt, nothing else. SweepPlan is the cross product; runSweep()
 * executes it across a std::thread pool and collects RunResults in the
 * plan's canonical (spec-major) order, so multithreaded output is
 * bit-identical to a serial run:
 *
 *   SweepPlan plan = SweepPlan::over(
 *       {"tage64k+prob7+sfc", "gshare:hist=17+jrs"}, allTraceNames(),
 *       1000000);
 *   auto rows = runSweepRows(plan, {.jobs = 8});   // one row per spec
 *
 * The unit of work is a column: the executed cells that share a trace
 * key (trace, branch count, seed salt). A column opens its trace once
 * and steps a fresh predictor per cell over each chunk in lockstep
 * (runTrace() over several predictors, sim/experiment.hpp), so the
 * paper grid makes each stream once instead of once per spec, and
 * memory stays at one chunk plus the column's predictors.
 *
 * Determinism: columns share no state (fresh predictors and trace per
 * column, no globals), each synthetic trace derives its seed purely
 * from (profile seed XOR plan.seedSalt) while a file-backed column
 * streams through its own reader handle, a cell's predictor sees
 * exactly the records it would see alone, and results land in a
 * preallocated slot indexed by cell position — thread count and
 * scheduling cannot change any output bit.
 */

#ifndef TAGECON_SIM_SWEEP_HPP
#define TAGECON_SIM_SWEEP_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace tagecon {

/** One (spec, trace) grid cell — a pure function of its strings. */
struct SweepCell {
    /** Canonical registry spec to construct. */
    std::string spec;

    /**
     * Trace spec: a synthetic profile name or "file:PATH"
     * (see sim/trace_registry.hpp). Each column opens its own
     * independent source, so file-backed columns stream from their own
     * handle and never share reader state across workers.
     */
    std::string trace;

    /** Branches to generate (synthetic) or replay at most (file). */
    uint64_t branches = 0;

    /** Seed salt applied to the trace's profile seed (synthetic only). */
    uint64_t seedSalt = 0;

    /**
     * Run-analysis observers to attach. Pure data: the worker builds a
     * fresh pipeline from it per cell, so observer state is never
     * shared and analysis output stays bit-identical at any --jobs.
     */
    AnalysisConfig analysis;
};

/** A (specs x traces) grid with shared branch count and seed salt. */
struct SweepPlan {
    /** Registry specs, one row per spec. */
    std::vector<std::string> specs;

    /** Trace specs (profile names / "file:PATH"), the columns. */
    std::vector<std::string> traces;

    /** Branches per cell (generated, or the replay cap for files). */
    uint64_t branchesPerTrace = 1000000;

    /** Seed salt applied to every cell's trace generation. */
    uint64_t seedSalt = 0;

    /** Run-analysis observers attached to every cell. */
    AnalysisConfig analysis;

    /** Convenience builder for the common literal case. */
    static SweepPlan over(std::vector<std::string> specs,
                          std::vector<std::string> traces,
                          uint64_t branches_per_trace,
                          uint64_t seed_salt = 0);

    /**
     * Expand user trace arguments into trace specs: each item is a
     * trace spec (profile name or "file:PATH"), or a set alias —
     * "cbp1" / "cbp2" / "all" (case-insensitive). Same as
     * resolveTraceSpecs() (sim/trace_registry.hpp), which it calls.
     * Returns false on an unknown item with the reason in @p error.
     */
    static bool resolveTraceArgs(const std::vector<std::string>& args,
                                 std::vector<std::string>& out,
                                 std::string& error);

    /**
     * Check the plan and canonicalize its specs in place: every spec
     * must be constructible, every trace name known, and the grid
     * non-empty. Returns false with the reason in @p error.
     * Idempotent: a second call on an unmodified plan (including the
     * copy runSweep() validates) returns immediately without
     * re-probing the predictors; mutating the plan after a successful
     * validate() is a usage error.
     */
    [[nodiscard]] bool validate(std::string* error = nullptr);

    /** True once validate() has succeeded on this plan (or a copy). */
    bool validated = false;

    /** Number of grid cells. */
    size_t cellCount() const { return specs.size() * traces.size(); }

    /**
     * The grid cells in canonical order: spec-major, traces in plan
     * order within each spec — the order results are returned in.
     */
    std::vector<SweepCell> cells() const;
};

/** Progress of a running sweep, as delivered to onProgress. */
struct SweepProgress {
    /** Cells finished so far (including this one). */
    size_t completed = 0;

    /** Cells the sweep executes: the plan's distinct cell keys. */
    size_t total = 0;

    /** The cell that just finished. */
    const SweepCell* cell = nullptr;

    /** Its result (valid for the duration of the callback). */
    const RunResult* result = nullptr;
};

/**
 * Identity of one sweep cell: the canonical spec, trace spec, branch
 * count, seed salt and analysis configuration — everything a cell's
 * RunResult is a pure function of. Two cells with equal keys produce
 * bit-identical results, so runSweep() runs each key once.
 */
std::string sweepCellKey(const SweepCell& cell);

/** Execution knobs of a sweep. */
struct SweepOptions {
    /** Worker threads; 0 means hardware concurrency. */
    unsigned jobs = 1;

    /**
     * Per-cell completion callback for long grids.
     *
     * Locking contract: the callback is invoked with runSweep()'s
     * per-call progress mutex held, so invocations are serialized —
     * it never runs concurrently with itself, and the SweepProgress
     * counters are consistent. It runs on whichever worker thread
     * finished the cell's column, so anything it touches *outside* the
     * callback's arguments must be its own synchronized state (e.g.
     * route printing through logLine(), which is line-atomic). It
     * must not block on work scheduled in the same runSweep() call
     * (that would deadlock the pool behind the progress mutex);
     * calling into an independent runSweep() is safe because the
     * mutex is per-call, not global.
     *
     * Completion order is scheduling-dependent, so treat it as
     * progress reporting only — results themselves are returned in
     * canonical plan order. Leave empty (the default) for zero
     * overhead. Progress fires once per executed cell (total is the
     * executed count): a duplicate cell is a copy, not a run. A
     * column's cells finish together, so their calls come in a row,
     * in plan order, once the column ends.
     */
    std::function<void(const SweepProgress&)> onProgress;
};

/**
 * Run one cell: a column of one, so a fresh trace + fresh predictor
 * through runTrace(). fatal()s with the trace's error when it fails to
 * open or fails mid-stream (a malformed record is named by file and
 * line); a spec SweepPlan::validate() rejects panics. Every cell
 * runSweep() returns equals runSweepCell() of it.
 */
[[nodiscard]] RunResult runSweepCell(const SweepCell& cell);

/**
 * Run every cell of @p plan across @p opt.jobs threads. fatal()s on an
 * invalid plan. Each distinct sweepCellKey() runs once and duplicate
 * cells receive a copy of its result; the obs counters sweep.cells,
 * sweep.cells.executed and sweep.cache.hits (the copies) record the
 * split. The executed cells are grouped into columns by trace key in
 * plan order, and columns are what the pool schedules: a plan with
 * fewer distinct traces than @p opt.jobs uses one worker per trace.
 * Each column opens one trace source (trace.sources.opened counts
 * columns), records one "sweep.column" span whose detail names the
 * trace and its specs, and one sweep.cell.ns sample. A column keeps
 * one predictor per cell alive until it ends, so a worker's memory is
 * the sum of the plan's predictors, not the largest one. Results are
 * in plan.cells() order regardless of the thread count or scheduling.
 */
[[nodiscard]] std::vector<RunResult>
runSweep(SweepPlan plan, const SweepOptions& opt = {});

/** One spec's row of a sweep, pooled over the plan's traces. */
struct SweepRow {
    /** Canonical spec of this row. */
    std::string spec;

    /** Per-trace results, in plan trace order. */
    std::vector<RunResult> perTrace;

    /**
     * Pooled statistics over all the row's branches; the row's binary
     * confusion is BinaryConfidenceMetrics::fromClassStats(aggregate).
     */
    ClassStats aggregate;

    /** Arithmetic mean of per-trace MPKI (the paper's misp/KI rows). */
    double meanMpki = 0.0;

    /** Predictor storage in bits (identical across the row's cells). */
    uint64_t storageBits = 0;

    /**
     * Cross-trace pooled ConfidenceHistogramObserver view: the sum of
     * every per-trace taken split of the row, when the plan attached
     * the histogram observer (its class and level totals are
     * aggregate's). Disengaged otherwise.
     */
    std::optional<ConfidenceHistogram> pooledHistogram;

    /** Cross-trace pooled BurstObserver view, likewise. */
    std::optional<BurstAnalysis> pooledBurst;
};

/**
 * Run @p plan and fold each spec's cells into one SweepRow — the shape
 * of the comparison benches (one table row per spec, pooled over both
 * benchmark sets).
 */
[[nodiscard]] std::vector<SweepRow>
runSweepRows(SweepPlan plan, const SweepOptions& opt = {});

} // namespace tagecon

#endif // TAGECON_SIM_SWEEP_HPP
