/**
 * @file
 * Reproduces Table 2 of the paper: prediction coverage, misprediction
 * coverage and misprediction rate (MKP) of the high / medium / low
 * confidence classes, for the three predictor sizes and both
 * benchmark sets, with the modified automaton at p = 1/128.
 * Declarative: one SweepPlan (3 prob7 sizes x both sets) + report
 * emitters.
 */

#include <iostream>

#include "bench_common.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    const auto opt = bench::parseOptions(argc, argv);
    Report r = bench::makeReport(
        "table2", "Table 2: three-level confidence split (p=1/128)",
        "Seznec, RR-7371 / HPCA 2011, Table 2", opt);

    const auto sizes = bench::paperSizes(/*prob7=*/true);
    const auto rows =
        bench::runGrid(bench::specsOf(sizes), allTraceNames(), opt);
    const size_t cbp1_traces = traceNames(BenchmarkSet::Cbp1).size();

    TextTable t = threeClassTable();
    for (size_t i = 0; i < rows.size(); ++i) {
        for (const BenchmarkSet set :
             {BenchmarkSet::Cbp1, BenchmarkSet::Cbp2}) {
            const auto slice =
                bench::sliceSet(rows[i], cbp1_traces,
                                set == BenchmarkSet::Cbp1);
            t.addRow(threeClassRow(sizes[i].label + " " +
                                       benchmarkSetName(set),
                                   slice.aggregate));
        }
    }
    r.addTable(ReportTable{"table2", "", std::move(t)});

    r.addBlank();
    for (size_t i = 0; i < rows.size(); ++i)
        bench::addRowAnalysis(r, rows[i], toLower(sizes[i].label));
    r.addText("paper reference (Pcov-MPcov (MPrate)):\n"
              "16K  CBP1 0.690-0.128 (7)   0.254-0.455 (72)  "
              "0.056-0.416 (306)\n"
              "16K  CBP2 0.790-0.078 (3)   0.163-0.478 (98)  "
              "0.046-0.443 (328)\n"
              "64K  CBP1 0.781-0.096 (3)   0.180-0.434 (59)  "
              "0.038-0.470 (304)\n"
              "64K  CBP2 0.818-0.056 (2)   0.095-0.466 (82)  "
              "0.042-0.478 (328)\n"
              "256K CBP1 0.802-0.060 (2)   0.162-0.442 (57)  "
              "0.034-0.498 (302)\n"
              "256K CBP2 0.826-0.040 (1)   0.135-0.469 (88)  "
              "0.038-0.491 (325)\n"
              "expected shape: high covers the vast majority at "
              "single-digit MKP; medium and low each cover roughly "
              "half of the mispredictions at ~5-15% and >30% rates.");
    r.emit(opt.format, std::cout);
    return 0;
}
