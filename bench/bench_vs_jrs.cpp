/**
 * @file
 * Head-to-head comparison the paper's title implies: the storage-free
 * TAGE confidence estimate against the classic storage-based JRS
 * estimator (Jacobsen/Rotenberg/Smith, MICRO 1996) and Grunwald et
 * al.'s prediction-indexed refinement, attached to the same 64Kbit
 * TAGE predictor, evaluated with Grunwald's binary metrics
 * (SENS / PVP / SPEC / PVN).
 *
 * The whole experiment is one declarative SweepPlan — rows are
 * registry specs, columns are all 40 traces of both benchmark sets —
 * executed by the shared parallel sweep runner (--jobs=N; results are
 * bit-identical at any thread count). Override the lineup with
 * --predictors=spec1,spec2,...
 */

#include <iostream>

#include "bench_common.hpp"
#include "core/estimators.hpp"
#include "sim/sweep.hpp"
#include "util/table_printer.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    const auto opt = bench::parseOptions(argc, argv, /*structured_output=*/false);
    bench::printHeader("Storage-free vs JRS confidence (64Kbit TAGE, "
                       "both benchmark sets)",
                       "Seznec, RR-7371 / HPCA 2011, Sec. 2.2 context",
                       opt, /*show_jobs=*/true);

    std::vector<std::string> specs = opt.predictors;
    if (specs.empty())
        specs = {"tage64k+prob7+sfc", "tage64k+prob7+jrs",
                 "tage64k+prob7+jrsg"};

    const SweepPlan plan = SweepPlan::over(
        specs, allTraceNames(), opt.branchesPerTrace, opt.seedSalt);
    const auto rows = runSweepRows(plan, {opt.jobs});

    TextTable t;
    t.addColumn("estimator", TextTable::Align::Left);
    t.addColumn("extra storage");
    t.addColumn("high cov");
    t.addColumn("SENS");
    t.addColumn("PVP");
    t.addColumn("SPEC");
    t.addColumn("PVN");
    for (const auto& row : rows) {
        const auto confusion =
            BinaryConfidenceMetrics::fromClassStats(row.aggregate);
        // Storage the estimator costs on top of its own host.
        const auto probe = makePredictor(row.spec);
        uint64_t extra_bits = 0;
        if (const auto* est =
                dynamic_cast<const EstimatedPredictor*>(probe.get()))
            extra_bits = est->estimator().storageBits();

        t.addRow({row.spec,
                  std::to_string(extra_bits / 1024) + " Kbit",
                  TextTable::frac(confusion.highCoverage()),
                  TextTable::frac(confusion.sens()),
                  TextTable::frac(confusion.pvp()),
                  TextTable::frac(confusion.spec()),
                  TextTable::frac(confusion.pvn())});
    }
    if (opt.csv)
        t.renderCsv(std::cout);
    else
        t.render(std::cout);

    std::cout << "\nexpected shape: the storage-free estimator matches "
                 "or beats the 16Kbit JRS tables on PVP/SPEC at zero "
                 "storage cost (the paper's core claim).\n";
    return 0;
}
