/**
 * @file
 * Reproduces the aggregate numbers quoted in the text of Sec. 5.1 and
 * Sec. 5.2 of the paper (CBP-1 set, 16Kbit and 256Kbit predictors,
 * baseline automaton):
 *  - BIM class share of predictions / mispredictions and its MPrate;
 *  - within-BIM split into low/medium/high-conf-bim (share of BIM
 *    predictions, share of BIM mispredictions, MPrate);
 *  - per-class MPrate of the tagged classes Wtag/NWtag/NStag/Stag and
 *    coverage of the non-saturated tagged classes.
 * Declarative: one SweepPlan (16K + 256K x CBP-1) + report emitters,
 * every ratio through the shared cell formatters.
 */

#include <iostream>

#include "bench_common.hpp"

using namespace tagecon;

namespace {

void
addAggregateSections(Report& r, const std::string& label,
                     const SweepRow& row)
{
    const ClassStats& s = row.aggregate;

    const auto bim_classes = {PredictionClass::HighConfBim,
                              PredictionClass::MediumConfBim,
                              PredictionClass::LowConfBim};
    const BimSplit bim = bimSplit(s);

    r.addText("=== " + label + " predictor, CBP-1 aggregate ===");
    r.addText("overall misprediction rate: " +
              TextTable::num(s.totalMkp(), 0) + " MKP");
    r.addText("BIM class: " +
              pctCell(bim.predictions, s.totalPredictions(), 0) +
              " % of predictions, " +
              pctCell(bim.mispredictions, s.totalMispredictions(), 0) +
              " % of mispredictions, " +
              ratePerKiloCell(bim.mispredictions, bim.predictions, 0) +
              " MKP");
    r.addBlank();

    TextTable bim_table;
    bim_table.addColumn("BIM subclass", TextTable::Align::Left);
    bim_table.addColumn("% of BIM preds");
    bim_table.addColumn("% of BIM misses");
    bim_table.addColumn("MPrate (MKP)");
    for (const auto c : bim_classes) {
        bim_table.addRow({predictionClassName(c),
                          pctCell(s.predictions(c), bim.predictions, 1),
                          pctCell(s.mispredictions(c),
                                  bim.mispredictions, 1),
                          TextTable::num(s.mprateMkp(c), 0)});
    }
    r.addTable(ReportTable{"bim-split-" + toLower(label), "",
                           std::move(bim_table)});
    r.addBlank();

    TextTable tag;
    tag.addColumn("tagged class", TextTable::Align::Left);
    tag.addColumn("Pcov %");
    tag.addColumn("MPcov %");
    tag.addColumn("MPrate (MKP)");
    for (const auto c : {PredictionClass::Wtag, PredictionClass::NWtag,
                         PredictionClass::NStag, PredictionClass::Stag}) {
        tag.addRow({predictionClassName(c),
                    TextTable::num(s.pcov(c) * 100.0, 1),
                    TextTable::num(s.mpcov(c) * 100.0, 1),
                    TextTable::num(s.mprateMkp(c), 0)});
    }
    r.addTable(ReportTable{"tagged-split-" + toLower(label), "",
                           std::move(tag)});
    r.addBlank();
    tagecon::bench::addRowAnalysis(r, row, toLower(label));
}

} // namespace

int
main(int argc, char** argv)
{
    const auto opt = bench::parseOptions(argc, argv);
    Report r = bench::makeReport(
        "section5", "Section 5 text numbers (CBP-1, 16K & 256K)",
        "Seznec, RR-7371 / HPCA 2011, Sec. 5.1-5.2", opt);

    const std::vector<bench::SizeSpec> sizes = {{"16K", "tage16k"},
                                                {"256K", "tage256k"}};
    const auto rows = bench::runGrid(bench::specsOf(sizes),
                                     traceNames(BenchmarkSet::Cbp1), opt);
    for (size_t i = 0; i < rows.size(); ++i)
        addAggregateSections(r, sizes[i].label, rows[i]);

    r.addText(
        "paper reference (CBP-1): 16K BIM = 50% preds / 35% misses / "
        "29 MKP; 256K BIM = 45% / 7% / 3 MKP.\n"
        "16K within-BIM: low-conf-bim 3% preds, 32% misses, 317 MKP; "
        "medium-conf-bim 12%, 39%, 87 MKP; high-conf-bim 85%, 29%, "
        "9 MKP.\n"
        "tagged rates 16K: Wtag 340, NWtag 313, NStag 213, Stag 29 "
        "MKP (256K: 325/312/225/17).");
    r.emit(opt.format, std::cout);
    return 0;
}
