/**
 * @file
 * Confidence explorer: sweep every trace of a benchmark set under a
 * chosen predictor and print per-trace MPKI plus the per-class
 * coverage and misprediction-rate breakdown — the tool you use to see
 * the paper's Figures 2-6 data for any configuration.
 *
 * Flags:
 *   --set=cbp1|cbp2      benchmark set (default cbp1)
 *   --predictor=SPEC     any registry spec (default tage64k+sfc; e.g.
 *                        tage16k+prob7+sfc for the Sec. 6 automaton)
 *   --branches=N         branches per trace (default 1M)
 */

#include <iostream>

#include "sim/registry.hpp"
#include "sim/reporting.hpp"
#include "sim/sweep.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    CliArgs args(argc, argv);
    args.rejectUnknownFlags({"set", "predictor", "branches"});
    const std::string set_name = args.getString("set", "cbp1");
    const std::string spec = args.getString("predictor", "tage64k+sfc");
    const uint64_t branches = args.getUint("branches", 1000000);

    BenchmarkSet set = BenchmarkSet::Cbp1;
    if (set_name == "cbp2")
        set = BenchmarkSet::Cbp2;
    else if (set_name != "cbp1")
        fatal("--set must be cbp1 or cbp2");
    std::string error;
    auto probe = tryMakePredictor(spec, &error);
    if (!probe)
        fatal("makePredictor: " + error);

    const auto rows =
        runSweepRows(SweepPlan::over({spec}, traceNames(set), branches));
    const SweepRow& result = rows.front();

    std::cout << "benchmark set: " << benchmarkSetName(set)
              << "   predictor: " << probe->name() << " ("
              << probe->storageBits() / 1024 << " Kbit)"
              << "\n\nPrediction coverage per class (%):\n";
    coverageTable(result.perTrace, result.aggregate).render(std::cout);

    std::cout << "\nMisprediction contribution per class (misp/KI):\n";
    mpkiBreakdownTable(result.perTrace, result.aggregate).render(std::cout);

    std::cout << "\nMisprediction rate per class (MKP):\n";
    mprateTable(result.perTrace, traceNames(set)).render(std::cout);

    std::cout << "\nThree-level split (Sec. 6.1):\n";
    TextTable three = threeClassTable();
    three.addRow(threeClassRow(probe->name() + " " +
                                   benchmarkSetName(set),
                               result.aggregate));
    three.render(std::cout);

    std::cout << "\nmean MPKI: " << TextTable::num(result.meanMpki, 2)
              << "\n";
    return 0;
}
