/**
 * @file
 * Head-to-head comparison the paper's title implies: the storage-free
 * TAGE confidence estimate against the classic storage-based JRS
 * estimator (Jacobsen/Rotenberg/Smith, MICRO 1996) and Grunwald et
 * al.'s prediction-indexed refinement, attached to the same 64Kbit
 * TAGE predictor, evaluated with Grunwald's binary metrics
 * (SENS / PVP / SPEC / PVN).
 *
 * The whole experiment is one declarative grid — rows are registry
 * specs, columns are all 40 traces of both benchmark sets — executed
 * by the shared parallel sweep runner (--jobs=N; results are
 * bit-identical at any thread count). Override the lineup with
 * --predictors=spec1,spec2,...
 */

#include <iostream>

#include "bench_common.hpp"
#include "core/estimators.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    const auto opt = bench::parseOptions(
        argc, argv,
        {"tage64k+prob7+sfc", "tage64k+prob7+jrs", "tage64k+prob7+jrsg"});
    Report r = bench::makeReport(
        "vs_jrs",
        "Storage-free vs JRS confidence (64Kbit TAGE, both benchmark "
        "sets)",
        "Seznec, RR-7371 / HPCA 2011, Sec. 2.2 context", opt);

    const auto rows = bench::runGrid(opt.predictors, allTraceNames(), opt);

    TextTable t;
    t.addColumn("estimator", TextTable::Align::Left);
    t.addColumn("extra storage");
    addBinaryMetricColumns(t);
    for (const auto& row : rows) {
        // Storage the estimator costs on top of its own host.
        const auto probe = makePredictor(row.spec);
        uint64_t extra_bits = 0;
        if (const auto* est =
                dynamic_cast<const EstimatedPredictor*>(probe.get()))
            extra_bits = est->estimator().storageBits();

        std::vector<std::string> cells = {
            row.spec, std::to_string(extra_bits / 1024) + " Kbit"};
        addBinaryMetricCells(cells, row.aggregate);
        t.addRow(std::move(cells));
    }
    r.addTable(ReportTable{"estimators", "", std::move(t)});

    r.addBlank();
    for (size_t i = 0; i < rows.size(); ++i)
        bench::addRowAnalysis(r, rows[i], "row" + std::to_string(i));
    r.addText("expected shape: the storage-free estimator matches or "
              "beats the 16Kbit JRS tables on PVP/SPEC at zero storage "
              "cost (the paper's core claim).");
    r.emit(opt.format, std::cout);
    return 0;
}
