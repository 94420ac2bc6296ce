/**
 * @file
 * Extension ablation: TAGE vs L-TAGE (TAGE + the loop predictor of
 * reference [12]). The loop predictor captures constant trip counts
 * beyond the history window, which matters most for the small
 * predictor on loop-heavy traces (FP-3's 40-250 iteration loops).
 *
 * One declarative grid: {tage, ltage} x {16K, 64K} specs over five
 * representative traces, per-cell results paired into TAGE/L-TAGE
 * rows (--jobs=N).
 */

#include <iostream>

#include "bench_common.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    const auto opt = bench::parseOptions(argc, argv);
    Report r = bench::makeReport(
        "ablation_looppred", "Ablation: TAGE vs L-TAGE (loop predictor)",
        "Seznec, JILP 2007 (paper reference [12])", opt);

    const std::vector<std::string> traces = {"FP-1", "FP-3", "INT-1",
                                             "164.gzip", "300.twolf"};
    // Adjacent (tage, ltage) spec pairs share a storage budget.
    const std::vector<bench::SizeSpec> sizes = {{"16K", "tage16k"},
                                                {"64K", "tage64k"}};
    std::vector<std::string> specs;
    for (const auto& size : sizes) {
        specs.push_back(size.spec);
        specs.push_back("l" + size.spec);
    }
    const auto rows = bench::runGrid(specs, traces, opt);

    TextTable t;
    t.addColumn("trace", TextTable::Align::Left);
    t.addColumn("config", TextTable::Align::Left);
    t.addColumn("TAGE misp/KI");
    t.addColumn("L-TAGE misp/KI");
    t.addColumn("delta %");

    for (size_t s = 0; s < sizes.size(); ++s) {
        for (size_t i = 0; i < traces.size(); ++i) {
            const double tage = rows[2 * s].perTrace[i].stats.mpki();
            const double ltage =
                rows[2 * s + 1].perTrace[i].stats.mpki();
            t.addRow({traces[i], sizes[s].label,
                      TextTable::num(tage, 3),
                      TextTable::num(ltage, 3),
                      TextTable::num(100.0 * (ltage - tage) / tage, 1)});
        }
    }
    r.addTable(ReportTable{"looppred", "", std::move(t)});

    r.addBlank();
    for (size_t i = 0; i < rows.size(); ++i)
        bench::addRowAnalysis(r, rows[i], specs[i]);
    r.addText("expected shape: the loop predictor helps most where long "
              "constant-trip loops exceed the history window (FP-3 on "
              "the 16K predictor) and is neutral elsewhere.");
    r.emit(opt.format, std::cout);
    return 0;
}
