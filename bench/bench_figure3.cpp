/**
 * @file
 * Reproduces Figure 3 of the paper: the Figure 2 panels for the CBP-2
 * trace set (prediction coverage and per-class misp/KI contributions
 * for the three predictor sizes, baseline automaton). Declarative:
 * one SweepPlan (3 sizes x CBP-2) + report emitters.
 */

#include <iostream>

#include "bench_common.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    const auto opt = bench::parseOptions(argc, argv);
    Report r = bench::makeReport(
        "figure3",
        "Figure 3: prediction/misprediction distribution, CBP-2",
        "Seznec, RR-7371 / HPCA 2011, Figure 3", opt);

    const auto sizes = bench::paperSizes();
    const auto rows =
        bench::runGrid(bench::specsOf(sizes),
                       traceNames(BenchmarkSet::Cbp2), opt);

    for (size_t i = 0; i < rows.size(); ++i) {
        const std::string& label = sizes[i].label;
        bench::addDistributionPanels(
            r, rows[i], toLower(label),
            label + " predictor: prediction coverage per class (%) "
                    "[Fig. 3 left]",
            label + " predictor: misprediction contribution (misp/KI) "
                    "[Fig. 3 right]");
    }

    r.addText("expected shape: twolf/gzip/vpr carry large tagged-class "
              "misprediction shares; mpegaudio/eon/raytrace are almost "
              "entirely high-conf-bim + Stag.");
    r.emit(opt.format, std::cout);
    return 0;
}
