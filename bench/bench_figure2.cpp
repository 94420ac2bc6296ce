/**
 * @file
 * Reproduces Figure 2 of the paper: for each CBP-1 trace and each of
 * the three predictor sizes, the distribution of predictions over the
 * 7 confidence classes (left panels, printed as coverage %) and the
 * distribution of mispredictions (right panels, printed as per-class
 * misp/KI contributions). Baseline (unmodified) update automaton.
 *
 * Declarative: one SweepPlan (3 sizes x CBP-1), rendered through the
 * structured report emitters (--report=text|csv|json), with optional
 * run-analysis observers (--analysis=...).
 */

#include <iostream>

#include "bench_common.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    const auto opt = bench::parseOptions(argc, argv);
    Report r = bench::makeReport(
        "figure2",
        "Figure 2: prediction/misprediction distribution, CBP-1",
        "Seznec, RR-7371 / HPCA 2011, Figure 2", opt);

    const auto sizes = bench::paperSizes();
    const auto rows =
        bench::runGrid(bench::specsOf(sizes),
                       traceNames(BenchmarkSet::Cbp1), opt);

    for (size_t i = 0; i < rows.size(); ++i) {
        const std::string& label = sizes[i].label;
        bench::addDistributionPanels(
            r, rows[i], toLower(label),
            label + " predictor: prediction coverage per class (%) "
                    "[Fig. 2 left]",
            label + " predictor: misprediction contribution (misp/KI) "
                    "[Fig. 2 right]");
    }

    r.addText("expected shape: SERV traces are BIM-heavy with large "
              "medium-conf-bim coverage on the 16K predictor;\n"
              "low/medium-conf-bim nearly vanish on the 256K "
              "predictor; Stag covers roughly half the predictions.");
    r.emit(opt.format, std::cout);
    return 0;
}
