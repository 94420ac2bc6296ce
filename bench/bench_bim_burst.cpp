/**
 * @file
 * Reproduces the observation behind the medium-conf-bim class
 * (Sec. 5.1.2): "the predictions from the BIM class that occur just
 * after a misprediction also in the BIM class (up to 8 branches in
 * the illustrated experiments) are also quite likely to be
 * mispredicted (in the range of 80-150 MKP for the 16Kbits predictor
 * for CBP1)".
 *
 * The measurement itself is the BurstObserver (--analysis=burst:...):
 * for each distance d in BIM-provided predictions from the most recent
 * BIM-provided misprediction, the misprediction rate of BIM
 * predictions at that distance — the decay curve that justifies the
 * paper's window of 8. This bench drives it through a (spec x CBP-1)
 * grid and prints each spec's cross-trace pooled curve, so the
 * numbers are bit-identical at any --jobs. Override the lineup with
 * --predictors=spec1,spec2,...
 */

#include <iostream>

#include "bench_common.hpp"

using namespace tagecon;

namespace {

constexpr uint64_t kMaxDistance = 16;

} // namespace

int
main(int argc, char** argv)
{
    auto opt =
        bench::parseOptions(argc, argv, {"tage16k+sfc", "tage256k+sfc"});
    // The bench is the burst view; install it with its default window,
    // but an explicit --analysis=burst:max=N wins.
    if (!opt.analysis.burst) {
        opt.analysis.burst = true;
        opt.analysis.burstMaxDistance = kMaxDistance;
    }
    auto rows = bench::runGrid(opt.predictors,
                               traceNames(BenchmarkSet::Cbp1), opt);

    Report report = bench::makeReport(
        "bim_burst",
        "BIM misprediction bursts (basis of medium-conf-bim)",
        "Seznec, RR-7371 / HPCA 2011, Sec. 5.1.2", opt);

    for (size_t i = 0; i < rows.size(); ++i) {
        if (i > 0)
            report.addBlank();
        ReportTable rt = burstAnalysisTable(*rows[i].pooledBurst,
                                            "burst" + std::to_string(i));
        rt.heading = rows[i].spec + " (pooled over CBP-1)";
        report.addTable(std::move(rt));
    }

    report.addBlank();
    // Further observers report per trace; the burst view is printed
    // above, pooled, so its per-trace slots are dropped.
    for (size_t i = 0; i < rows.size(); ++i) {
        for (auto& rr : rows[i].perTrace)
            rr.analysis.burst.reset();
        bench::addRowAnalysis(report, rows[i], "row" + std::to_string(i));
    }
    report.addText("paper anchor: the first ~8 post-miss BIM "
                   "predictions run at 80-150 MKP on the 16K predictor; "
                   "far-from-miss BIM predictions run at ~9 MKP.");
    report.addText("expected shape: monotonically decaying rate with a "
                   "knee around the paper's window of 8, at both "
                   "sizes.");

    report.emit(opt.format, std::cout);
    return 0;
}
