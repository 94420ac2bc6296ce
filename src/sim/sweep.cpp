#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
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
        std::string spec_err;
        // Probe-construct so workers can't hit a bad spec mid-sweep.
        if (!tryMakePredictor(spec, &spec_err)) {
            err = spec_err;
            break;
        }
        spec = canonicalizeSpec(spec);
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

std::string
sweepCellKey(const SweepCell& cell)
{
    // '\x1f' (unit separator) cannot appear in specs or trace names,
    // so concatenated fields cannot collide across boundaries.
    std::string key = canonicalizeSpec(cell.spec);
    key += '\x1f';
    key += cell.trace;
    key += '\x1f';
    key += std::to_string(cell.branches);
    key += '\x1f';
    key += std::to_string(cell.seedSalt);
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
    // Every cell streams through its own independent source (own file
    // handle for file-backed traces), so no materialization and no
    // shared reader state across worker threads.
    auto trace =
        makeTraceSource(cell.trace, cell.branches, cell.seedSalt);
    auto predictor = makePredictor(cell.spec);
    // A fresh observer pipeline per cell: analysis output is a pure
    // function of the cell, whatever thread runs it.
    RunResult result = runTrace(*trace, *predictor, cell.analysis);
    // A stream that fails mid-file fails the cell like one that never
    // opened, rather than passing off its prefix as the whole trace.
    if (const Err* e = trace->lastError())
        fatal("runSweepCell: " + e->message());
    return result;
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
    // selections) copy its slot after the join.
    std::vector<size_t> to_run;
    std::vector<std::pair<size_t, size_t>> copies; // (dst, src) slots
    {
        std::unordered_map<std::string, size_t> first_run;
        for (size_t i = 0; i < cells.size(); ++i) {
            const auto [it, inserted] =
                first_run.emplace(sweepCellKey(cells[i]), i);
            if (inserted)
                to_run.push_back(i);
            else
                copies.emplace_back(i, it->second);
        }
    }
    // Planner-side counters: resolved before the pool starts, so
    // deterministic at any --jobs.
    obs::counter("sweep.cells").add(cells.size());
    obs::counter("sweep.cells.executed").add(to_run.size());
    obs::counter("sweep.cache.hits").add(copies.size());

    size_t jobs = opt.jobs != 0
                      ? opt.jobs
                      : std::max(1u, std::thread::hardware_concurrency());
    jobs = std::min(jobs, to_run.size());

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
        const SweepProgress progress{progress_state.completed,
                                     to_run.size(), &cells[i],
                                     &results[i]};
        opt.onProgress(progress);
    };

    obs::TimingHistogram& cell_ns = obs::timingHistogram("sweep.cell.ns");
    auto run_cell = [&](size_t i) {
        obs::SpanScope span("sweep.cell", i);
        if (obs::tracingEnabled())
            span.detail(cells[i].spec + " x " + cells[i].trace);
        obs::ScopedTimer timer(cell_ns);
        results[i] = runSweepCell(cells[i]);
    };

    if (jobs <= 1) {
        for (const size_t i : to_run) {
            run_cell(i);
            report_progress(i);
        }
    } else {
        // Work-stealing by atomic work-list index; each worker writes
        // only its own preassigned slot, so no locking and no ordering
        // effects.
        std::atomic<size_t> next{0};
        auto worker = [&] {
            for (size_t w = next.fetch_add(1); w < to_run.size();
                 w = next.fetch_add(1)) {
                run_cell(to_run[w]);
                report_progress(to_run[w]);
            }
        };
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
            row.confusion.merge(rr.confusion);
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
