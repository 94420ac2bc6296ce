/**
 * @file
 * Shared plumbing for the experiment binaries: flag parsing and the
 * standard header each bench prints.
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
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace tagecon::bench {

/** Options every experiment binary accepts. */
struct BenchOptions {
    /** Branches generated per trace (--branches). */
    uint64_t branchesPerTrace = 1000000;

    /** Extra seed salt applied to every trace (--seed). */
    uint64_t seedSalt = 0;

    /** Emit CSV instead of aligned text (--csv). */
    bool csv = false;

    /**
     * Output format (--report=text|csv|json); --csv is a legacy alias
     * for --report=csv. Honored by the report-emitting benches.
     */
    ReportFormat format = ReportFormat::Text;

    /**
     * Worker threads for sweep-based benches (--jobs=N); 0 means
     * hardware concurrency. Results are bit-identical at any value.
     */
    unsigned jobs = 1;

    /**
     * Run-analysis observers to attach (--analysis=spec,spec,...),
     * e.g. --analysis=histogram,perbranch:top=8. Empty (default)
     * keeps the bench's historical byte-stable output.
     */
    AnalysisConfig analysis;

    /**
     * Registry specs to drive (--predictors=a,b,c). Empty means the
     * bench's built-in default lineup.
     */
    std::vector<std::string> predictors;
};

/**
 * Parse the standard flags. --list-predictors prints specs and exits;
 * any other flag fatal()s.
 *
 * @param structured_output True for benches that emit through the
 *        Report layer (figure/table/section/warmup reproductions):
 *        they honor --report=json and --analysis. Benches that still
 *        print directly pass false, and those flags fatal() instead
 *        of being silently ignored (--report=text/csv still work —
 *        they map onto the historical text/--csv output).
 */
inline BenchOptions
parseOptions(int argc, char** argv, bool structured_output = true)
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
    opt.csv = args.getBool("csv", false);
    if (opt.csv)
        opt.format = ReportFormat::Csv;
    if (args.has("report")) {
        std::string error;
        if (!parseReportFormat(args.getString("report", "text"),
                               opt.format, error))
            fatal(error);
        if (!structured_output && opt.format == ReportFormat::Json)
            fatal("this bench does not emit structured reports; "
                  "--report=json is only available on the "
                  "figure/table/section/warmup benches");
        opt.csv = opt.format == ReportFormat::Csv;
    }
    // 0 keeps its documented "hardware concurrency" meaning here, but
    // the range check stops 2^32-wrapping values from silently
    // becoming 0 through the narrowing cast.
    opt.jobs = static_cast<unsigned>(
        args.getUintInRange("jobs", opt.jobs, 0, 1024));
    {
        const auto specs = regroupSpecList(args.getList("analysis"));
        if (!structured_output && !specs.empty())
            fatal("this bench does not run analysis observers; "
                  "--analysis is only available on the "
                  "figure/table/section/warmup benches and "
                  "tagecon_sweep");
        std::string error;
        if (!parseAnalysisSpecs(specs, opt.analysis, error))
            fatal(error);
    }
    // Rejoin parameterized specs the comma-split cut apart.
    opt.predictors = regroupSpecList(args.getList("predictors"));
    return opt;
}

/**
 * Start the standard report of a sweep-driven bench: banner title,
 * paper reference and the run-parameter meta line (branches, seed and
 * — since these benches honor --jobs — the worker count when not 1).
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
 * Print the standard experiment banner. @p show_jobs is set by the
 * sweep-driven benches, which actually honor --jobs; the serial
 * benches omit the field so the banner never advertises parallelism
 * that does not exist.
 */
inline void
printHeader(const std::string& experiment, const std::string& paper_ref,
            const BenchOptions& opt, bool show_jobs = false)
{
    std::cout << "=== " << experiment << " ===\n"
              << "reproduces: " << paper_ref << "\n"
              << "branches/trace: " << opt.branchesPerTrace
              << "  seed-salt: " << opt.seedSalt;
    if (show_jobs)
        std::cout << "  jobs: " << opt.jobs;
    std::cout << "\n\n";
}

} // namespace tagecon::bench

#endif // TAGECON_BENCH_BENCH_COMMON_HPP
