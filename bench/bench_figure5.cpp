/**
 * @file
 * Reproduces Figure 5 of the paper: prediction / misprediction
 * distributions with the modified 3-bit counter automaton (p = 1/128)
 * for the three panels the paper shows: 16Kbit on CBP-1, 64Kbit on
 * CBP-2 and 256Kbit on CBP-1. Declarative: one single-spec SweepPlan
 * per panel + report emitters.
 */

#include <iostream>

#include "bench_common.hpp"

using namespace tagecon;

namespace {

void
addPanel(Report& r, const std::string& label, const std::string& spec,
         BenchmarkSet set, const tagecon::bench::BenchOptions& opt)
{
    const auto rows =
        tagecon::bench::runGrid({spec}, traceNames(set), opt);
    const std::string set_name = benchmarkSetName(set);
    tagecon::bench::addDistributionPanels(
        r, rows.front(), toLower(label + "-" + set_name),
        label + " predictor, " + set_name +
            ": prediction coverage per class (%)",
        label + " predictor, " + set_name +
            ": misprediction contribution (misp/KI)");
}

} // namespace

int
main(int argc, char** argv)
{
    const auto opt = tagecon::bench::parseOptions(argc, argv);
    Report r = tagecon::bench::makeReport(
        "figure5",
        "Figure 5: distributions with the modified automaton (p=1/128)",
        "Seznec, RR-7371 / HPCA 2011, Figure 5", opt);

    addPanel(r, "16K", "tage16k+prob7", BenchmarkSet::Cbp1, opt);
    addPanel(r, "64K", "tage64k+prob7", BenchmarkSet::Cbp2, opt);
    addPanel(r, "256K", "tage256k+prob7", BenchmarkSet::Cbp1, opt);

    r.addText("expected shape vs Figure 2/3: Stag shrinks and its "
              "misprediction contribution nearly vanishes; NStag "
              "grows and absorbs the medium-rate mispredictions.");
    r.emit(opt.format, std::cout);
    return 0;
}
