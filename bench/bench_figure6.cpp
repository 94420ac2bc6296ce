/**
 * @file
 * Reproduces Figure 6 of the paper: per-class misprediction rates
 * (MKP) on the first CBP-2 traces, 64Kbit predictor, with the
 * modified 3-bit counter automaton (p = 1/128). Declarative: a
 * one-spec SweepPlan over CBP-2 + report emitters.
 */

#include <iostream>

#include "bench_common.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    const auto opt = bench::parseOptions(argc, argv);
    Report r = bench::makeReport(
        "figure6",
        "Figure 6: per-class MKP with modified automaton, 64Kbit, "
        "CBP-2",
        "Seznec, RR-7371 / HPCA 2011, Figure 6", opt);

    const auto rows = bench::runGrid(
        {"tage64k+prob7"}, traceNames(BenchmarkSet::Cbp2), opt);
    const SweepRow& row = rows.front();

    const std::vector<std::string> figure_traces = {
        "164.gzip", "175.vpr", "176.gcc", "181.mcf", "186.crafty",
        "197.parser",
    };
    r.addTable(ReportTable{"mprate", "",
                           mprateTable(row.perTrace, figure_traces)});
    r.addBlank();
    r.addText("set-wide per-class rates (MKP):");
    r.addTable(
        ReportTable{"class-rates", "", classRateTable(row.aggregate)});
    r.addBlank();
    bench::addRowAnalysis(r, row, "");

    r.addText("expected shape vs Figure 4: MPrate(Stag) collapses "
              "to the 1-5 MKP range; NStag drops toward the 50-100 "
              "MKP range.");
    r.emit(opt.format, std::cout);
    return 0;
}
