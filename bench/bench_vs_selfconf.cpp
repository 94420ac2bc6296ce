/**
 * @file
 * Reproduces the Sec. 2.2 related-work claims about *self-confidence*
 * on neural/GEHL-style predictors, against the TAGE storage-free
 * scheme:
 *
 *   "This confidence estimation for the O-GEHL predictor exhibits a
 *    quite good PVN: about one third of the low confidence predictions
 *    are in practice mispredicted. But on the other hand, it exhibits
 *    only a limited SPEC: only half of the mispredicted branches are
 *    effectively classified as low confidence."
 *
 * Each predictor is evaluated with its own confidence scheme on its
 * own predictions (self-confidence is inseparable from its host), so
 * the comparison covers both accuracy and confidence quality. The
 * experiment is one declarative SweepPlan over the shared parallel
 * runner (--jobs=N); override the lineup with
 * --predictors=spec1,spec2,...
 */

#include <iostream>

#include "bench_common.hpp"
#include "sim/sweep.hpp"
#include "util/table_printer.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    const auto opt = bench::parseOptions(argc, argv, /*structured_output=*/false);
    bench::printHeader("Self-confidence comparison: TAGE storage-free "
                       "vs O-GEHL vs perceptron",
                       "Seznec, RR-7371 / HPCA 2011, Sec. 2.2", opt,
                       /*show_jobs=*/true);

    std::vector<std::string> specs = opt.predictors;
    if (specs.empty())
        specs = {"tage64k+prob7+sfc", "ogehl+self", "perceptron+self"};

    const SweepPlan plan = SweepPlan::over(
        specs, allTraceNames(), opt.branchesPerTrace, opt.seedSalt);
    const auto rows = runSweepRows(plan, {opt.jobs});

    TextTable t;
    t.addColumn("predictor + confidence", TextTable::Align::Left);
    t.addColumn("storage (Kbit)");
    t.addColumn("misp rate (MKP)");
    t.addColumn("high cov");
    t.addColumn("SENS");
    t.addColumn("PVP");
    t.addColumn("SPEC");
    t.addColumn("PVN");
    for (const auto& row : rows) {
        const auto confusion =
            BinaryConfidenceMetrics::fromClassStats(row.aggregate);
        t.addRow({row.spec,
                  TextTable::num(
                      static_cast<double>(row.storageBits) / 1024.0, 0),
                  TextTable::num(row.aggregate.totalMkp(), 1),
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

    std::cout << "\npaper anchors (Sec. 2.2): O-GEHL self-confidence "
                 "PVN ~ 1/3, SPEC ~ 1/2.\n"
                 "expected shape: the TAGE storage-free scheme clearly "
                 "exceeds the self-confidence SPEC while TAGE is also "
                 "the most accurate predictor.\n";
    return 0;
}
