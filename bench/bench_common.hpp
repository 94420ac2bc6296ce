/**
 * @file
 * The one front end of the paper benches: flag parsing, the standard
 * report banner, the (spec x trace) grid runner and the shared report
 * sections. A bench names its grid, runGrid() executes it (in parallel
 * under --jobs, with any --analysis observers attached per cell), and
 * the results are rendered through one Report that is emitted once.
 * No bench owns a simulation loop or writes to stdout itself.
 */

#ifndef TAGECON_BENCH_BENCH_COMMON_HPP
#define TAGECON_BENCH_BENCH_COMMON_HPP

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/analysis_config.hpp"
#include "sim/registry.hpp"
#include "sim/report.hpp"
#include "sim/reporting.hpp"
#include "sim/sweep.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/text.hpp"

namespace tagecon::bench {

/** Options every paper bench accepts. */
struct BenchOptions {
    /** Branches generated per trace (--branches). */
    uint64_t branchesPerTrace = 1000000;

    /** Extra seed salt applied to every trace (--seed). */
    uint64_t seedSalt = 0;

    /** Output format (--report=text|csv|json; --csv is an alias). */
    ReportFormat format = ReportFormat::Text;

    /**
     * Worker threads of the bench's grid (--jobs=N); 0 means hardware
     * concurrency. Results are bit-identical at any value.
     */
    unsigned jobs = 1;

    /**
     * Run-analysis observers to attach (--analysis=spec,spec,...),
     * e.g. --analysis=histogram,perbranch:top=8. Empty (default)
     * keeps the bench's historical byte-stable output.
     */
    AnalysisConfig analysis;

    /**
     * Registry specs to drive: the --predictors list, or the bench's
     * default lineup when the flag is absent. Empty on the benches
     * that run a fixed grid.
     */
    std::vector<std::string> predictors;
};

/**
 * Parse the standard flags. --list-predictors prints specs and exits;
 * any other flag fatal()s. @p lineup is the bench's default
 * --predictors list; a bench without one rejects the flag.
 */
inline BenchOptions
parseOptions(int argc, char** argv,
             const std::vector<std::string>& lineup = {})
{
    CliArgs args(argc, argv);
    if (args.has("list-predictors")) {
        printPredictorCatalog(std::cout);
        std::exit(0);
    }
    args.rejectUnknownFlags({"branches", "seed", "csv", "report", "jobs",
                             "analysis", "predictors",
                             "list-predictors"});
    BenchOptions opt;
    opt.branchesPerTrace = args.getUint("branches", opt.branchesPerTrace);
    opt.seedSalt = args.getUint("seed", 0);
    if (args.getBool("csv", false))
        opt.format = ReportFormat::Csv;
    std::string error;
    if (args.has("report") &&
        !parseReportFormat(args.getString("report", "text"), opt.format,
                           error))
        fatal(error);
    // 0 keeps its documented "hardware concurrency" meaning here, but
    // the range check stops 2^32-wrapping values from silently
    // becoming 0 through the narrowing cast.
    opt.jobs = static_cast<unsigned>(
        args.getUintInRange("jobs", opt.jobs, 0, 1024));
    if (!parseAnalysisSpecs(regroupSpecList(args.getList("analysis")),
                            opt.analysis, error))
        fatal(error);
    if (!args.has("predictors")) {
        opt.predictors = lineup;
    } else if (lineup.empty()) {
        fatal("this bench runs a fixed grid; --predictors is only "
              "available on bench_vs_jrs, bench_vs_selfconf and "
              "bench_bim_burst");
    } else {
        // Rejoin parameterized specs the comma-split cut apart.
        opt.predictors = regroupSpecList(args.getList("predictors"));
    }
    return opt;
}

/**
 * Start the standard report of a bench: banner title, paper reference
 * and the run-parameter meta line (branches, seed and the worker
 * count when not 1).
 */
inline Report
makeReport(std::string id, std::string title, std::string paper_ref,
           const BenchOptions& opt)
{
    Report r(std::move(id), std::move(title), std::move(paper_ref));
    r.addMeta("branches/trace", std::to_string(opt.branchesPerTrace));
    r.addMeta("seed-salt", std::to_string(opt.seedSalt));
    if (opt.jobs != 1)
        r.addMeta("jobs", std::to_string(opt.jobs));
    return r;
}

/**
 * Run the bench's grid: @p specs x @p traces, with the run
 * parameters, analysis observers and worker count of @p opt. One
 * pooled row per spec, bit-identical at any --jobs.
 */
inline std::vector<SweepRow>
runGrid(const std::vector<std::string>& specs,
        const std::vector<std::string>& traces, const BenchOptions& opt)
{
    SweepPlan plan = SweepPlan::over(specs, traces, opt.branchesPerTrace,
                                     opt.seedSalt);
    plan.analysis = opt.analysis;
    return runSweepRows(plan, SweepOptions{opt.jobs, {}});
}

/**
 * Append the analysis sections of every cell of @p row, id'd
 * "<prefix>-<trace>-<observer>" ("<trace>-<observer>" when @p prefix
 * is empty). No-op for a run without observers.
 */
inline void
addRowAnalysis(Report& r, const SweepRow& row, const std::string& prefix)
{
    for (const auto& rr : row.perTrace) {
        const std::string trace = toLower(rr.traceName);
        addAnalysisSections(r, rr,
                            prefix.empty() ? trace : prefix + "-" + trace);
    }
}

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
 * Append the Figure 2/3/5 panel pair for one row — prediction
 * coverage and per-class misp/KI contribution — followed by any
 * attached analysis sections.
 */
inline void
addDistributionPanels(Report& r, const SweepRow& row,
                      const std::string& id_suffix,
                      const std::string& cov_heading,
                      const std::string& mpki_heading)
{
    r.addTable(ReportTable{"coverage-" + id_suffix, cov_heading,
                           coverageTable(row.perTrace, row.aggregate)});
    r.addBlank();
    r.addTable(
        ReportTable{"mpki-" + id_suffix, mpki_heading,
                    mpkiBreakdownTable(row.perTrace, row.aggregate)});
    r.addBlank();
    addRowAnalysis(r, row, id_suffix);
}

/**
 * Pooled per-set statistics of one row of a grid over both sets: merge
 * the slice of perTrace cells belonging to the first (when @p first)
 * or second set, and the mean of their per-trace MPKIs — the paper's
 * per-set figures, folded in the same order as a one-set row's.
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

#endif // TAGECON_BENCH_BENCH_COMMON_HPP
