/**
 * @file
 * Reproduces Table 3 of the paper: the three-level confidence split
 * when the saturation probability is driven at run time by the
 * adaptive controller of Sec. 6.2 (p in {1/1024 .. 1}, x/÷2 steps),
 * which maximizes high-confidence coverage while holding the measured
 * high-confidence misprediction rate under 10 MKP. Declarative: one
 * SweepPlan (3 prob7+adaptive sizes x both sets) + report emitters.
 */

#include <iostream>

#include "bench_common.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    const auto opt = bench::parseOptions(argc, argv);
    Report r = bench::makeReport(
        "table3", "Table 3: three-level split, adaptive probability",
        "Seznec, RR-7371 / HPCA 2011, Table 3", opt);

    const auto sizes =
        bench::paperSizes(/*prob7=*/true, /*adaptive=*/true);
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
    r.addTable(ReportTable{"table3", "", std::move(t)});

    r.addBlank();
    for (size_t i = 0; i < rows.size(); ++i)
        bench::addRowAnalysis(r, rows[i], toLower(sizes[i].label));
    r.addText("paper reference (Pcov-MPcov (MPrate)):\n"
              "16K  CBP1 0.758-0.167 (8)   0.187-0.423 (92)   "
              "0.053-0.409 (311)\n"
              "16K  CBP2 0.816-0.112 (5)   0.139-0.452 (109)  "
              "0.044-0.436 (332)\n"
              "64K  CBP1 0.855-0.156 (5)   0.109-0.387 (88)   "
              "0.036-0.456 (309)\n"
              "64K  CBP2 0.848-0.100 (3)   0.112-0.432 (110)  "
              "0.040-0.468 (331)\n"
              "256K CBP1 0.882-0.140 (3)   0.085-0.381 (93)   "
              "0.033-0.479 (306)\n"
              "256K CBP2 0.870-0.105 (3)   0.092-0.419 (115)  "
              "0.037-0.476 (331)\n"
              "expected shape: vs Table 2, high-confidence coverage "
              "grows while its MPrate stays at or under ~10 MKP.");
    r.emit(opt.format, std::cout);
    return 0;
}
