#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/span_trace.hpp"
#include "sim/registry.hpp"
#include "sim/trace_registry.hpp"
#include "util/logging.hpp"
#include "util/mutex.hpp"

namespace tagecon {

SweepPlan
SweepPlan::over(std::vector<std::string> specs,
                std::vector<std::string> traces,
                uint64_t branches_per_trace, uint64_t seed_salt)
{
    SweepPlan plan;
    plan.specs = std::move(specs);
    plan.traces = std::move(traces);
    plan.branchesPerTrace = branches_per_trace;
    plan.seedSalt = seed_salt;
    return plan;
}

bool
SweepPlan::resolveTraceArgs(const std::vector<std::string>& args,
                            std::vector<std::string>& out,
                            std::string& error)
{
    return resolveTraceSpecs(args, out, error);
}

bool
SweepPlan::validate(std::string* error)
{
    if (validated)
        return true;
    std::string err;
    if (specs.empty())
        err = "sweep plan names no predictor specs";
    else if (traces.empty())
        err = "sweep plan names no traces";
    else if (branchesPerTrace == 0)
        err = "sweep plan generates zero branches per trace";
    else if (analysis.intervals && analysis.intervalLength == 0)
        err = "analysis interval length must be positive";
    else if (analysis.warmup && analysis.warmupIntervalLength == 0)
        err = "warmup interval length must be positive";

    for (auto& spec : specs) {
        if (!err.empty())
            break;
        // Probe-construct so workers can't hit a bad spec mid-sweep.
        const auto probe = tryMakePredictor(spec, &err);
        if (!probe)
            break;
        spec = probe->name();
    }
    for (const auto& trace : traces) {
        if (!err.empty())
            break;
        TraceSpec spec;
        // Probe files up front so workers can't hit a missing or
        // corrupt trace mid-sweep.
        if (!parseTraceSpec(trace, spec, &err))
            break;
        if (!validateTraceSpec(spec, &err))
            break;
    }

    if (!err.empty()) {
        if (error)
            *error = err;
        return false;
    }
    validated = true;
    return true;
}

std::vector<SweepCell>
SweepPlan::cells() const
{
    std::vector<SweepCell> cells;
    cells.reserve(cellCount());
    for (const auto& spec : specs) {
        for (const auto& trace : traces)
            cells.push_back(SweepCell{spec, trace, branchesPerTrace,
                                      seedSalt, analysis});
    }
    return cells;
}

namespace {

/**
 * The trace key of a cell: trace spec, branch count and seed salt,
 * everything its stream is a pure function of. '\x1f' (unit
 * separator) cannot appear in specs or trace names, so concatenated
 * fields cannot collide across boundaries.
 */
std::string
traceKey(const SweepCell& cell)
{
    return cell.trace + '\x1f' + std::to_string(cell.branches) + '\x1f' +
           std::to_string(cell.seedSalt);
}

/**
 * Run one column: @p cells share a trace key and an analysis config,
 * so one source (one file handle for a file-backed trace) feeds a
 * fresh predictor per cell in lockstep. Results are in @p cells order.
 * fatal()s when the trace fails to open or fails mid-stream.
 */
std::vector<RunResult>
runColumn(std::span<const SweepCell* const> cells)
{
    const SweepCell& head = *cells.front();
    auto opened = openTraceSource(head.trace, head.branches, head.seedSalt);
    if (!opened.ok())
        fatal("runSweepCell: " + opened.error().message());
    const std::unique_ptr<TraceSource> trace = opened.take();
    std::vector<std::unique_ptr<GradedPredictor>> owned;
    std::vector<GradedPredictor*> predictors;
    owned.reserve(cells.size());
    for (const SweepCell* cell : cells) {
        owned.push_back(makePredictor(cell->spec));
        predictors.push_back(owned.back().get());
    }
    std::vector<RunResult> results =
        runTrace(*trace, predictors, head.analysis);
    // A stream that fails mid-file fails its cells like one that never
    // opened, rather than passing off its prefix as the whole trace.
    if (const Err* e = trace->lastError())
        fatal("runSweepCell: " + e->message());
    return results;
}

} // namespace

std::string
sweepCellKey(const SweepCell& cell)
{
    std::string key = canonicalizeSpec(cell.spec);
    key += '\x1f';
    key += traceKey(cell);
    key += '\x1f';

    const AnalysisConfig& a = cell.analysis;
    if (a.intervals)
        key += "intervals:len=" + std::to_string(a.intervalLength) + ";";
    if (a.histogram)
        key += "histogram;";
    if (a.burst)
        key += "burst:max=" + std::to_string(a.burstMaxDistance) + ";";
    if (a.perBranch)
        key += "perbranch:top=" + std::to_string(a.perBranchTopN) + ";";
    if (a.warmup)
        key += "warmup:len=" + std::to_string(a.warmupIntervalLength) +
               ",mkp=" + std::to_string(a.warmupThresholdMkp) + ";";
    return key;
}

RunResult
runSweepCell(const SweepCell& cell)
{
    const SweepCell* const one = &cell;
    return std::move(runColumn({&one, 1}).front());
}

std::vector<RunResult>
runSweep(SweepPlan plan, const SweepOptions& opt)
{
    std::string error;
    if (!plan.validate(&error))
        fatal("runSweep: " + error);

    const std::vector<SweepCell> cells = plan.cells();
    std::vector<RunResult> results(cells.size());

    // Cells are pure functions of their key, so each distinct key runs
    // once and duplicate cells (a spec listed twice, overlapping trace
    // selections) copy its slot after the join. The unit of work is a
    // column: the executed cells that share a trace key, in plan
    // order, so each stream is made once and feeds all of them.
    std::vector<std::vector<const SweepCell*>> columns;
    std::vector<std::pair<size_t, size_t>> copies; // (dst, src) slots
    {
        std::unordered_map<std::string, size_t> first_run;
        std::unordered_map<std::string, size_t> column_of;
        for (size_t i = 0; i < cells.size(); ++i) {
            const auto [it, inserted] =
                first_run.emplace(sweepCellKey(cells[i]), i);
            if (!inserted) {
                copies.emplace_back(i, it->second);
                continue;
            }
            const auto [col, fresh] =
                column_of.emplace(traceKey(cells[i]), columns.size());
            if (fresh)
                columns.emplace_back();
            columns[col->second].push_back(&cells[i]);
        }
    }
    const size_t executed = cells.size() - copies.size();
    const auto slot = [&cells](const SweepCell* cell) {
        return static_cast<size_t>(cell - cells.data());
    };
    // Planner-side counters: resolved before the pool starts, so
    // deterministic at any --jobs.
    obs::counter("sweep.cells").add(cells.size());
    obs::counter("sweep.cells.executed").add(executed);
    obs::counter("sweep.cache.hits").add(copies.size());

    size_t jobs = opt.jobs != 0
                      ? opt.jobs
                      : std::max(1u, std::thread::hardware_concurrency());
    jobs = std::min(jobs, columns.size());

    // Progress callbacks are serialized under one per-call mutex so a
    // consumer printing lines never interleaves; the completed count
    // is owned by the same mutex (see the SweepOptions::onProgress
    // locking contract). No-op (and cost-free) when unset.
    struct ProgressState {
        Mutex mutex;
        size_t completed TAGECON_GUARDED_BY(mutex) = 0;
    } progress_state;
    auto report_progress = [&](size_t i) {
        if (!opt.onProgress)
            return;
        MutexLock lock(progress_state.mutex);
        ++progress_state.completed;
        const SweepProgress progress{progress_state.completed, executed,
                                     &cells[i], &results[i]};
        opt.onProgress(progress);
    };

    // One sweep.cell.ns sample per column, the unit of scheduling.
    obs::TimingHistogram& column_ns = obs::timingHistogram("sweep.cell.ns");
    auto run_column = [&](size_t c) {
        {
            obs::SpanScope span("sweep.column", c);
            if (obs::tracingEnabled()) {
                std::string detail = columns[c].front()->trace + " x ";
                for (const SweepCell* cell : columns[c]) {
                    if (cell != columns[c].front())
                        detail += " | ";
                    detail += cell->spec;
                }
                span.detail(std::move(detail));
            }
            obs::ScopedTimer timer(column_ns);
            std::vector<RunResult> out = runColumn(columns[c]);
            for (size_t k = 0; k < out.size(); ++k)
                results[slot(columns[c][k])] = std::move(out[k]);
        }
        for (const SweepCell* cell : columns[c])
            report_progress(slot(cell));
    };

    // Work-stealing by atomic column index; each worker writes only its
    // own columns' preassigned slots, so no locking and no ordering
    // effects. A single job runs the worker on this thread.
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t c = next.fetch_add(1); c < columns.size();
             c = next.fetch_add(1))
            run_column(c);
    };
    if (jobs <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (size_t t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
        for (auto& t : pool)
            t.join();
    }

    for (const auto& [dst, src] : copies)
        results[dst] = results[src];
    return results;
}

std::vector<SweepRow>
runSweepRows(SweepPlan plan, const SweepOptions& opt)
{
    std::vector<RunResult> flat = runSweep(plan, opt);
    const size_t per_row = plan.traces.size();

    std::vector<SweepRow> rows;
    rows.reserve(plan.specs.size());
    for (size_t s = 0; s < plan.specs.size(); ++s) {
        SweepRow row;
        row.spec = canonicalizeSpec(plan.specs[s]);
        double mpki_sum = 0.0;
        for (size_t t = 0; t < per_row; ++t) {
            RunResult& rr = flat[s * per_row + t];
            row.aggregate.merge(rr.stats);
            // ordered-reduction: serial fold over flat[] in canonical
            // plan order — independent of jobs/scheduling.
            mpki_sum += rr.stats.mpki();
            row.storageBits = rr.storageBits;
            if (rr.analysis.histogram) {
                if (!row.pooledHistogram)
                    row.pooledHistogram.emplace();
                row.pooledHistogram->merge(*rr.analysis.histogram);
            }
            if (rr.analysis.burst) {
                if (!row.pooledBurst)
                    row.pooledBurst.emplace();
                row.pooledBurst->merge(*rr.analysis.burst);
            }
            row.perTrace.push_back(std::move(rr));
        }
        row.meanMpki = per_row == 0
                           ? 0.0
                           : mpki_sum / static_cast<double>(per_row);
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace tagecon
