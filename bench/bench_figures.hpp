/**
 * @file
 * Shared building blocks of the figure/table reproduction benches,
 * which are all declarative now: a SweepPlan names the (spec x trace)
 * grid, runSweepRows() executes it (in parallel under --jobs, with
 * any --analysis observers attached per cell), and the results are
 * rendered through the structured Report emitters. No bench owns a
 * simulation loop or a printf anymore.
 */

#ifndef TAGECON_BENCH_BENCH_FIGURES_HPP
#define TAGECON_BENCH_BENCH_FIGURES_HPP

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/reporting.hpp"
#include "sim/sweep.hpp"
#include "util/text.hpp"

namespace tagecon::bench {

/** One paper predictor size: display label + registry spec. */
struct SizeSpec {
    std::string label; ///< paper name ("16K", "64K", "256K")
    std::string spec;  ///< registry spec that reproduces it
};

/**
 * The three Table 1 sizes, optionally with the Sec. 6 modified
 * automaton (p = 1/128) and the Sec. 6.2 adaptive controller.
 */
inline std::vector<SizeSpec>
paperSizes(bool prob7 = false, bool adaptive = false)
{
    std::string suffix;
    if (prob7)
        suffix += "+prob7";
    if (adaptive)
        suffix += "+adaptive";
    return {{"16K", "tage16k" + suffix},
            {"64K", "tage64k" + suffix},
            {"256K", "tage256k" + suffix}};
}

/** The registry specs of a lineup, in order. */
inline std::vector<std::string>
specsOf(const std::vector<SizeSpec>& sizes)
{
    std::vector<std::string> specs;
    specs.reserve(sizes.size());
    for (const auto& s : sizes)
        specs.push_back(s.spec);
    return specs;
}

/**
 * Build and run the bench's grid: @p specs x the traces of @p set,
 * with the run parameters and analysis observers of @p opt. One
 * pooled row per spec, bit-identical at any --jobs.
 */
inline std::vector<SweepRow>
runSetGrid(const std::vector<std::string>& specs, BenchmarkSet set,
           const BenchOptions& opt)
{
    SweepPlan plan = SweepPlan::over(specs, traceNames(set),
                                     opt.branchesPerTrace, opt.seedSalt);
    plan.analysis = opt.analysis;
    return runSweepRows(plan, SweepOptions{opt.jobs, {}});
}

/** Like runSetGrid() but over the concatenated traces of two sets. */
inline std::vector<SweepRow>
runTwoSetGrid(const std::vector<std::string>& specs, BenchmarkSet a,
              BenchmarkSet b, const BenchOptions& opt)
{
    std::vector<std::string> traces = traceNames(a);
    const auto& second = traceNames(b);
    traces.insert(traces.end(), second.begin(), second.end());
    SweepPlan plan = SweepPlan::over(specs, traces,
                                     opt.branchesPerTrace, opt.seedSalt);
    plan.analysis = opt.analysis;
    return runSweepRows(plan, SweepOptions{opt.jobs, {}});
}

/**
 * Append the Figure 2/3/5 panel pair for one row — prediction
 * coverage and per-class misp/KI contribution — followed by any
 * attached analysis sections.
 */
inline void
addDistributionPanels(Report& r, const SweepRow& row,
                      const std::string& id_suffix,
                      const std::string& cov_heading,
                      const std::string& mpki_heading,
                      const BenchOptions& opt)
{
    r.addTable(ReportTable{"coverage-" + id_suffix, cov_heading,
                           coverageTable(row.perTrace, row.aggregate)});
    r.addBlank();
    r.addTable(
        ReportTable{"mpki-" + id_suffix, mpki_heading,
                    mpkiBreakdownTable(row.perTrace, row.aggregate)});
    r.addBlank();
    if (opt.analysis.enabled()) {
        for (const auto& rr : row.perTrace)
            addAnalysisSections(
                r, rr, id_suffix + "-" + toLower(rr.traceName));
    }
}

/**
 * Pooled per-set statistics of one row of a two-set grid: merge the
 * slice of perTrace cells belonging to the first (when @p first) or
 * second set, and the mean of their per-trace MPKIs — the paper's
 * per-set figures.
 */
struct SetSlice {
    ClassStats aggregate;
    double meanMpki = 0.0;
};

inline SetSlice
sliceSet(const SweepRow& row, size_t first_set_traces, bool first)
{
    SetSlice slice;
    const size_t begin = first ? 0 : first_set_traces;
    const size_t end = first ? first_set_traces : row.perTrace.size();
    double mpki_sum = 0.0;
    for (size_t i = begin; i < end; ++i) {
        slice.aggregate.merge(row.perTrace[i].stats);
        mpki_sum += row.perTrace[i].stats.mpki();
    }
    if (end > begin)
        slice.meanMpki = mpki_sum / static_cast<double>(end - begin);
    return slice;
}

} // namespace tagecon::bench

#endif // TAGECON_BENCH_BENCH_FIGURES_HPP
