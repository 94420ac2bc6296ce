/**
 * @file
 * Reproduces Figure 4 of the paper: misprediction rate (in
 * mispredictions per kilo-prediction, MKP) of each of the 7 confidence
 * classes on the first CBP-2 traces (164.gzip .. 197.parser), 64Kbit
 * predictor, baseline automaton. Declarative: a one-spec SweepPlan
 * over CBP-2 + report emitters.
 */

#include <iostream>

#include "bench_common.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    const auto opt = bench::parseOptions(argc, argv);
    Report r = bench::makeReport(
        "figure4",
        "Figure 4: per-class misprediction rates (MKP), 64Kbit, CBP-2",
        "Seznec, RR-7371 / HPCA 2011, Figure 4", opt);

    const auto rows =
        bench::runGrid({"tage64k"}, traceNames(BenchmarkSet::Cbp2), opt);
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

    r.addText("expected shape: Wtag > NWtag > NStag >> Stag ~ "
              "average; low-conf-bim ~300+ MKP; high-conf-bim lowest.");
    r.emit(opt.format, std::cout);
    return 0;
}
