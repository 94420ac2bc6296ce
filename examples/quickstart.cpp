/**
 * @file
 * Quickstart: build a graded predictor from a registry spec, run it
 * over a synthetic trace through the generic drive loop, and print the
 * per-class breakdown.
 *
 * This is the whole public API surface in ~30 lines of user code:
 * makePredictor(spec), runTrace(), and the ClassStats the run returns.
 * Try other specs: --predictor=gshare+jrs, ltage64k+sfc,
 * perceptron+self, tage64k+prob7+adaptive+sfc ...
 */

#include <iostream>

#include "sim/experiment.hpp"
#include "sim/registry.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table_printer.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    CliArgs args(argc, argv);
    args.rejectUnknownFlags({"predictor", "branches"});
    // The paper's 64Kbit configuration with the Sec. 6 modified
    // automaton (p = 1/128) and the storage-free estimator — the
    // setting of Table 2.
    const std::string spec =
        args.getString("predictor", "tage64k+prob7+sfc");
    const uint64_t branches = args.getUint("branches", 500000);

    std::string error;
    auto predictor = tryMakePredictor(spec, &error);
    if (!predictor)
        fatal("makePredictor: " + error);
    std::cout << predictor->name() << " ("
              << predictor->storageBits() / 1024 << " Kbit)\n\n";

    // Any TraceSource works here; we generate the gzip-like profile.
    SyntheticTrace trace = makeTrace("164.gzip", branches);
    const RunResult result = runTrace(trace, *predictor);
    const ClassStats& stats = result.stats;

    TextTable t;
    t.addColumn("class", TextTable::Align::Left);
    t.addColumn("level", TextTable::Align::Left);
    t.addColumn("Pcov %");
    t.addColumn("MPcov %");
    t.addColumn("MPrate (MKP)");
    for (const auto c : kAllPredictionClasses) {
        t.addRow({predictionClassName(c),
                  confidenceLevelName(confidenceLevel(c)),
                  TextTable::num(stats.pcov(c) * 100.0, 1),
                  TextTable::num(stats.mpcov(c) * 100.0, 1),
                  TextTable::num(stats.mprateMkp(c), 1)});
    }
    t.addSeparator();
    t.addRow({"total", "", "100.0", "100.0",
              TextTable::num(stats.totalMkp(), 1)});
    t.render(std::cout);

    const auto confusion = BinaryConfidenceMetrics::fromClassStats(stats);
    std::cout << "\noverall: " << TextTable::num(stats.mpki(), 2)
              << " MPKI over " << stats.totalPredictions()
              << " branches; high-confidence coverage "
              << TextTable::frac(confusion.highCoverage()) << " at PVP "
              << TextTable::frac(confusion.pvp()) << "\n";
    return 0;
}
