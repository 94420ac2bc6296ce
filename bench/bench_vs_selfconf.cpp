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
 * experiment is one declarative grid over the shared parallel runner
 * (--jobs=N); override the lineup with --predictors=spec1,spec2,...
 */

#include <iostream>

#include "bench_common.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    const auto opt = bench::parseOptions(
        argc, argv, {"tage64k+prob7+sfc", "ogehl+self", "perceptron+self"});
    Report r = bench::makeReport(
        "vs_selfconf",
        "Self-confidence comparison: TAGE storage-free vs O-GEHL vs "
        "perceptron",
        "Seznec, RR-7371 / HPCA 2011, Sec. 2.2", opt);

    const auto rows = bench::runGrid(opt.predictors, allTraceNames(), opt);

    TextTable t;
    t.addColumn("predictor + confidence", TextTable::Align::Left);
    t.addColumn("storage (Kbit)");
    t.addColumn("misp rate (MKP)");
    addBinaryMetricColumns(t);
    for (const auto& row : rows) {
        std::vector<std::string> cells = {
            row.spec,
            TextTable::num(static_cast<double>(row.storageBits) / 1024.0,
                           0),
            TextTable::num(row.aggregate.totalMkp(), 1)};
        addBinaryMetricCells(cells, row.aggregate);
        t.addRow(std::move(cells));
    }
    r.addTable(ReportTable{"predictors", "", std::move(t)});

    r.addBlank();
    for (size_t i = 0; i < rows.size(); ++i)
        bench::addRowAnalysis(r, rows[i], "row" + std::to_string(i));
    r.addText("paper anchors (Sec. 2.2): O-GEHL self-confidence PVN ~ "
              "1/3, SPEC ~ 1/2.");
    r.addText("expected shape: the TAGE storage-free scheme clearly "
              "exceeds the self-confidence SPEC while TAGE is also the "
              "most accurate predictor.");
    r.emit(opt.format, std::cout);
    return 0;
}
