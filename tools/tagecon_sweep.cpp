/**
 * @file
 * Ad-hoc (predictor x trace) grid runner: any registry specs —
 * including parameterized ones — over any trace selection, in
 * parallel, without writing new C++ per geometry:
 *
 *   tagecon_sweep --predictors=tage64k+prob7+sfc,gshare:hist=17+jrs \
 *                 --traces=cbp1 --branches=1000000 --jobs=8
 *
 * Flags:
 *   --predictors=a,b,c   registry specs, one row each (required;
 *                        see --list-predictors)
 *   --traces=...         trace specs — synthetic profile names,
 *                        file:PATH trace files (.tcbt binary or
 *                        CBP-style ASCII[.gz]) — and/or the set
 *                        aliases cbp1 / cbp2 / all (default all)
 *   --branches=N         branches per cell: generated for synthetic
 *                        traces, a replay cap for file traces
 *                        (default 1000000)
 *   --seed=N             seed salt for synthetic trace generation
 *                        (file traces replay as recorded)
 *   --jobs=N             worker threads, 1-1024. Results are
 *                        bit-identical at any value.
 *   --baseline=SPEC      add a delta view vs the named spec
 *                        (d-misp/KI and d-MKP columns per row; the
 *                        baseline is added to the grid if absent)
 *   --analysis=a,b,c     run-analysis observers per cell
 *                        (--list-observers; e.g. histogram,
 *                        "perbranch:top=8", "warmup:len=10000,mkp=20");
 *                        per-cell tables follow the main table
 *   --report=FMT         text (default), csv, or json — one shared
 *                        schema with the bench reports
 *   --progress           per-cell progress lines on stderr as the
 *                        grid runs (thread-safe; stdout unchanged)
 *   --per-trace          one output row per (spec, trace) cell
 *                        instead of one pooled row per spec
 *   --csv                legacy alias for --report=csv
 *   --metrics            append the obs metrics tables to the report
 *   --metrics-out=PATH   write the Prometheus-style metrics dump to
 *                        PATH ("-" = stdout); implies --metrics
 *   --trace-out=PATH     collect spans (one per trace column) and
 *                        write Chrome trace_event JSON ("-" = stdout)
 *   --list-predictors    print bases / estimators / examples and exit
 *   --list-observers     print selectable analysis observers and exit
 */

#include <algorithm>
#include <iostream>

#include "analysis/analysis_config.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_export.hpp"
#include "obs/span_trace.hpp"
#include "sim/registry.hpp"
#include "sim/reporting.hpp"
#include "sim/sweep.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table_printer.hpp"

using namespace tagecon;

namespace {

void
listObservers()
{
    std::cout << "selectable analysis observers:\n";
    for (const auto& name : registeredRunObservers())
        std::cout << "  " << name << "\n";
    std::cout << "parameters: intervals:len=N  burst:max=N  "
                 "perbranch:top=N  warmup:len=N,mkp=N\n";
}

void
addMetricColumns(TextTable& t, bool with_baseline)
{
    t.addColumn("misp/KI");
    t.addColumn("misp rate (MKP)");
    if (with_baseline) {
        t.addColumn("d-misp/KI");
        t.addColumn("d-MKP");
    }
    addBinaryMetricColumns(t);
    t.addColumn("storage (Kbit)");
}

std::vector<std::string>
metricCells(const ClassStats& stats, double mpki, uint64_t storage_bits,
            const double* base_mpki, const double* base_mkp)
{
    std::vector<std::string> cells = {
        TextTable::num(mpki, 3), TextTable::num(stats.totalMkp(), 1)};
    if (base_mpki != nullptr) {
        cells.push_back(TextTable::num(mpki - *base_mpki, 3));
        cells.push_back(
            TextTable::num(stats.totalMkp() - *base_mkp, 1));
    }
    addBinaryMetricCells(cells, stats);
    cells.push_back(
        TextTable::num(static_cast<double>(storage_bits) / 1024.0, 1));
    return cells;
}

} // namespace

int
main(int argc, char** argv)
{
    const CliArgs args(argc, argv);
    if (args.has("list-predictors")) {
        printPredictorCatalog(std::cout);
        return 0;
    }
    if (args.has("list-observers")) {
        listObservers();
        return 0;
    }

    args.rejectUnknownFlags(
        {"predictors", "traces", "branches", "seed", "jobs", "baseline",
         "analysis", "report", "progress", "per-trace", "csv",
         "list-predictors", "list-observers", "metrics", "metrics-out",
         "trace-out"});

    // Rejoin parameterized specs the comma-split cut apart, so
    // canonical names print back into --predictors verbatim.
    auto specs = regroupSpecList(args.getList("predictors"));
    if (specs.empty())
        fatal("--predictors=spec1,spec2,... is required "
              "(see --list-predictors)");

    // The baseline spec joins the grid (front row) when not already
    // listed, so its cells are simulated exactly once.
    std::string baseline;
    size_t baseline_row = 0;
    if (args.has("baseline")) {
        std::string error;
        baseline = canonicalizeSpec(args.getString("baseline", ""),
                                    &error);
        if (baseline.empty())
            fatal("--baseline: " + error);
        const auto found = std::find_if(
            specs.begin(), specs.end(), [&](const std::string& s) {
                return canonicalizeSpec(s) == baseline;
            });
        if (found == specs.end())
            specs.insert(specs.begin(), baseline);
        else
            baseline_row =
                static_cast<size_t>(found - specs.begin());
    }

    SweepPlan plan;
    plan.specs = specs;
    std::string error;
    if (!SweepPlan::resolveTraceArgs(args.getList("traces", {"all"}),
                                     plan.traces, error))
        fatal(error);
    plan.branchesPerTrace = args.getUint("branches", 1000000);
    plan.seedSalt = args.getUint("seed", 0);
    if (!parseAnalysisSpecs(regroupSpecList(args.getList("analysis")),
                            plan.analysis, error))
        fatal(error);
    if (!plan.validate(&error))
        fatal(error);

    SweepOptions sweep_opt;
    // Range-checked before narrowing: --jobs=0 (which SweepOptions
    // would reinterpret as "hardware concurrency") and 2^32-wrapping
    // values are rejected up front with the flag named.
    sweep_opt.jobs =
        static_cast<unsigned>(args.getUintInRange("jobs", 1, 1, 1024));
    if (args.getBool("progress", false)) {
        // Progress goes to stderr so CI stdout diffs stay byte-stable;
        // logLine() serializes against warn() from parallel workers,
        // keeping every line atomic.
        sweep_opt.onProgress = [](const SweepProgress& p) {
            logLine("progress: " + std::to_string(p.completed) + "/" +
                    std::to_string(p.total) + "  " + p.cell->spec +
                    " x " + p.cell->trace);
        };
    }
    const bool per_trace = args.getBool("per-trace", false);
    const std::string metrics_out = args.getString("metrics-out", "");
    const std::string trace_out = args.getString("trace-out", "");
    const bool metrics_on =
        args.getBool("metrics", false) || !metrics_out.empty();
    if (metrics_on)
        obs::setMetricsEnabled(true);
    if (!trace_out.empty())
        obs::startTracing();

    ReportFormat format = ReportFormat::Text;
    if (!parseReportFlags(args, format, error))
        fatal(error);

    Report report("sweep",
                  "tagecon_sweep: " +
                      std::to_string(plan.specs.size()) + " spec(s) x " +
                      std::to_string(plan.traces.size()) + " trace(s)",
                  "");
    report.addMeta("branches/trace",
                   std::to_string(plan.branchesPerTrace));
    report.addMeta("seed-salt", std::to_string(plan.seedSalt));
    report.addMeta("jobs", std::to_string(sweep_opt.jobs));
    if (!baseline.empty())
        report.addMeta("baseline", baseline);
    // The CSV view historically prints the bare table.
    report.setShowBanner(format != ReportFormat::Csv);

    TextTable t;
    t.addColumn("predictor", TextTable::Align::Left);
    t.addColumn("trace", TextTable::Align::Left);
    addMetricColumns(t, !baseline.empty());

    const bool analysis_on = plan.analysis.enabled();
    // Labels + pointers into the (outliving) result vectors — the
    // analysis payload is never copied just to be re-headed.
    std::vector<std::pair<std::string, const RunResult*>> analysis_cells;
    std::vector<RunResult> cells;
    std::vector<SweepRow> rows;

    if (per_trace) {
        cells = runSweep(plan, sweep_opt);
        const size_t per_row = plan.traces.size();
        for (size_t i = 0; i < cells.size(); ++i) {
            const RunResult& r = cells[i];
            const double* base_mpki = nullptr;
            const double* base_mkp = nullptr;
            double bm = 0.0;
            double bk = 0.0;
            if (!baseline.empty()) {
                // Delta vs the baseline's cell for the same trace.
                const RunResult& b =
                    cells[baseline_row * per_row + i % per_row];
                bm = b.stats.mpki();
                bk = b.stats.totalMkp();
                base_mpki = &bm;
                base_mkp = &bk;
            }
            std::vector<std::string> row = {r.configName, r.traceName};
            const auto metrics = metricCells(
                r.stats, r.stats.mpki(), r.storageBits, base_mpki, base_mkp);
            row.insert(row.end(), metrics.begin(), metrics.end());
            t.addRow(row);
            if (analysis_on)
                analysis_cells.emplace_back(
                    r.configName + " x " + r.traceName, &r);
        }
    } else {
        rows = runSweepRows(plan, sweep_opt);
        for (const auto& r : rows) {
            const double* base_mpki = nullptr;
            const double* base_mkp = nullptr;
            double bm = 0.0;
            double bk = 0.0;
            if (!baseline.empty()) {
                const SweepRow& b = rows[baseline_row];
                bm = b.meanMpki;
                bk = b.aggregate.totalMkp();
                base_mpki = &bm;
                base_mkp = &bk;
            }
            std::vector<std::string> row = {
                r.spec, std::to_string(r.perTrace.size()) + " traces"};
            const auto metrics = metricCells(
                r.aggregate, r.meanMpki, r.storageBits, base_mpki, base_mkp);
            row.insert(row.end(), metrics.begin(), metrics.end());
            t.addRow(row);
            if (analysis_on) {
                for (const auto& rr : r.perTrace)
                    analysis_cells.emplace_back(
                        r.spec + " x " + rr.traceName, &rr);
            }
        }
    }

    report.addTable(ReportTable{"grid", "", std::move(t)});

    // Pooled cross-trace observer views, one per row, ahead of the
    // per-trace sections.
    size_t row_idx = 0;
    for (const auto& r : rows) {
        const std::string prefix = "row" + std::to_string(row_idx);
        if (r.pooledHistogram) {
            report.addBlank();
            ReportTable rt = histogramAnalysisTable(
                r.aggregate, *r.pooledHistogram,
                prefix + "-pooled-histogram");
            rt.heading = r.spec + " (pooled) [histogram]";
            report.addTable(std::move(rt));
        }
        if (r.pooledBurst) {
            report.addBlank();
            ReportTable rt = burstAnalysisTable(
                *r.pooledBurst, prefix + "-pooled-burst");
            rt.heading = r.spec + " (pooled) [burst]";
            report.addTable(std::move(rt));
        }
        ++row_idx;
    }

    size_t cell_idx = 0;
    for (const auto& [label, rr] : analysis_cells) {
        report.addBlank();
        addAnalysisSections(report, *rr,
                            "cell" + std::to_string(cell_idx), label);
        ++cell_idx;
    }

    if (!trace_out.empty())
        obs::stopTracing();
    obs::MetricsSnapshot snapshot;
    if (metrics_on) {
        snapshot = obs::snapshotMetrics();
        report.addBlank();
        obs::addMetricsTables(report, snapshot,
                              format != ReportFormat::Csv);
    }

    report.emit(format, std::cout);

    if (!metrics_out.empty()) {
        if (Err e = obs::writePrometheusFile(snapshot, metrics_out);
            e.failed())
            fatal("--metrics-out: " + e.message());
    }
    if (!trace_out.empty()) {
        if (Err e = obs::writeChromeTraceFile(trace_out); e.failed())
            fatal("--trace-out: " + e.message());
    }
    return 0;
}
