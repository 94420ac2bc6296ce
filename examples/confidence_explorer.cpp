/**
 * @file
 * Confidence explorer: sweep every trace of a benchmark set under a
 * chosen predictor size / automaton and print per-trace MPKI plus the
 * per-class coverage and misprediction-rate breakdown — the tool you
 * use to see the paper's Figures 2-6 data for any configuration.
 *
 * Flags:
 *   --set=cbp1|cbp2      benchmark set (default cbp1)
 *   --predictor=SPEC     any registry spec (overrides the flags below)
 *   --config=16K|64K|256K  predictor size (default 64K)
 *   --modified           use the Sec. 6 probabilistic automaton
 *   --prob=N             log2(1/p) for the modified automaton (default 7)
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
    const std::string set_name = args.getString("set", "cbp1");
    const std::string config_name = args.getString("config", "64K");
    const bool modified = args.getBool("modified", false);
    const auto log2_prob =
        static_cast<unsigned>(args.getUint("prob", 7));
    const uint64_t branches = args.getUint("branches", 1000000);

    const BenchmarkSet set = set_name == "cbp2" ? BenchmarkSet::Cbp2
                                                : BenchmarkSet::Cbp1;

    // Everything is a registry spec; the legacy size/automaton flags
    // are translated into one when --predictor is not given.
    std::string spec = args.getString("predictor", "");
    if (spec.empty()) {
        spec = tageBaseForSize(config_name);
        if (spec.empty())
            fatal("unknown --config (use 16K, 64K or 256K)");
        if (modified)
            spec += "+prob" + std::to_string(log2_prob);
        spec += "+sfc";
    }
    auto probe = makePredictor(spec);

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
