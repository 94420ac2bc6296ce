/**
 * @file
 * Renderers producing the paper's tables and figure data series from
 * simulation results, the shared numeric cell formatters every bench
 * routes through, and the builders that turn run-analysis observer
 * output (RunAnalysis) into report tables.
 *
 * Figures are printed as aligned text tables (one row per trace, one
 * column per class) — the same numbers the paper plots as stacked
 * bars. The per-trace renderers take any (perTrace, aggregate) pair,
 * such as a SweepRow's.
 */

#ifndef TAGECON_SIM_REPORTING_HPP
#define TAGECON_SIM_REPORTING_HPP

#include <string>

#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "util/table_printer.hpp"

namespace tagecon {

// --------------------------------------------- shared cell formatters
//
// Every floating-point cell in every bench goes through these (or the
// underlying TextTable::num), so precision and locale are uniform
// across tables, formats and binaries.

/** "100 * num / den" with @p decimals digits; "0.0"-style when den=0. */
std::string pctCell(uint64_t num, uint64_t den, int decimals = 1);

/** "1000 * num / den" (MKP-style rate), @p decimals digits. */
std::string ratePerKiloCell(uint64_t num, uint64_t den,
                            int decimals = 0);

/** The pooled counts of the three bimodal-provider classes. */
struct BimSplit {
    uint64_t predictions = 0;
    uint64_t mispredictions = 0;
};

/**
 * Fold the BIM classes (high/medium/low-conf-bim) of @p stats — the
 * Sec. 5.1 "BIM class" every bimodal-side view is built on.
 */
BimSplit bimSplit(const ClassStats& stats);

// ------------------------------------------------- figure/table views

/**
 * Figure 2/3/5-left style: per-trace prediction coverage (%) of each
 * of the 7 classes, with a pooled "(all)" row.
 */
TextTable coverageTable(const std::vector<RunResult>& per_trace,
                        const ClassStats& aggregate);

/**
 * Figure 2/3/5-right style: per-trace misprediction contribution in
 * misses per kilo-instruction of each of the 7 classes, plus the
 * total MPKI.
 */
TextTable mpkiBreakdownTable(const std::vector<RunResult>& per_trace,
                             const ClassStats& aggregate);

/**
 * Figure 4/6 style: per-trace misprediction rate (MKP) of each class,
 * with an average column, for the named subset of traces (each must
 * be in @p per_trace; panics otherwise).
 */
TextTable mprateTable(const std::vector<RunResult>& per_trace,
                      const std::vector<std::string>& traces);

/**
 * Figure 4/6 footer style: one row per class with its pooled MPrate
 * (MKP) plus the average row.
 */
TextTable classRateTable(const ClassStats& stats);

/**
 * Table 2/3 style row content for one configuration x benchmark set:
 * "Pcov-MPcov (MPrate)" per confidence level.
 */
std::vector<std::string> threeClassRow(const std::string& label,
                                       const ClassStats& stats);

/** Build the Table 2/3 skeleton (header columns). */
TextTable threeClassTable();

/**
 * Append the binary confidence columns of Grunwald et al. (Sec. 2.2):
 * high cov, SENS, PVP, SPEC and PVN.
 */
void addBinaryMetricColumns(TextTable& t);

/**
 * Append the cells of those columns to @p row: each ratio of
 * BinaryConfidenceMetrics::fromClassStats(@p stats) as a fraction.
 */
void addBinaryMetricCells(std::vector<std::string>& row,
                          const ClassStats& stats);

/** Render a one-line summary of a RunResult (debugging / examples). */
std::string summarize(const RunResult& result);

// ------------------------------------------- analysis result tables

/** Per-interval class stats (IntervalObserver output). */
ReportTable intervalAnalysisTable(const IntervalAnalysis& ia,
                                  const std::string& id);

/**
 * Class/level distributions: the class and level counts of @p stats
 * with the taken split @p h (ConfidenceHistogramObserver output) of
 * the same predictions.
 */
ReportTable histogramAnalysisTable(const ClassStats& stats,
                                   const ConfidenceHistogram& h,
                                   const std::string& id);

/** BIM misprediction-distance decay (BurstObserver output). */
ReportTable burstAnalysisTable(const BurstAnalysis& ba,
                               const std::string& id);

/** Hard-to-predict top-N branches (PerBranchObserver output). */
ReportTable perBranchAnalysisTable(const PerBranchAnalysis& pa,
                                   const std::string& id);

/** Warming-phase summary (WarmupObserver output). */
ReportTable warmupAnalysisTable(const WarmupAnalysis& wa,
                                const std::string& id);

/**
 * Append one table per populated slot of @p result.analysis to @p r,
 * each headed "<label> [<observer>]" and id'd "<id_prefix>-<observer>".
 * The label names the cell ("<spec> x <trace>"), so a report's
 * headings stay unique. No-op for runs without analysis.
 */
void addAnalysisSections(Report& r, const RunResult& result,
                         const std::string& id_prefix,
                         const std::string& label);

} // namespace tagecon

#endif // TAGECON_SIM_REPORTING_HPP
