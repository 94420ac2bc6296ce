/**
 * @file
 * Warming-phase analysis supporting Sec. 5.1: "on a very large
 * predictor, a misprediction with the bimodal component as provider
 * component should occur only during the warming phase of the
 * predictor". This bench tracks the BIM-class misprediction rate and
 * the medium-conf-bim coverage over consecutive intervals of the
 * stream, on a phased trace (SERV-2) and a stationary one (FP-1).
 *
 * Declarative: each panel is a one-cell grid with the
 * IntervalObserver attached; the table is rendered from the run's
 * RunAnalysis::intervals — the bench owns no simulation loop.
 *
 * Expected: BIM-class MKP spikes in the first interval(s) and after
 * working-set rotations (SERV-2), and decays to a small steady state;
 * medium-conf-bim coverage tracks those spikes — it is the burst
 * detector.
 */

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"

using namespace tagecon;

namespace {

void
analyze(Report& r, const std::string& trace_name,
        const std::string& label, const std::string& spec,
        const tagecon::bench::BenchOptions& opt)
{
    const uint64_t interval = opt.analysis.intervalLength;
    auto rows = tagecon::bench::runGrid({spec}, {trace_name}, opt);
    RunResult& rr = rows.front().perTrace.front();
    const IntervalAnalysis& ia = *rr.analysis.intervals;

    TextTable t;
    t.addColumn("interval", TextTable::Align::Left);
    t.addColumn("total MKP");
    t.addColumn("BIM MKP");
    t.addColumn("medium-conf-bim Pcov %");
    t.addColumn("low+med-bim MPcov %");

    for (size_t idx = 0; idx < ia.completeIntervals; ++idx) {
        const ClassStats& s = ia.intervals[idx];
        const BimSplit bim = bimSplit(s);
        t.addRow({std::to_string(idx),
                  TextTable::num(s.totalMkp(), 1),
                  ratePerKiloCell(bim.mispredictions, bim.predictions,
                                  1),
                  TextTable::num(
                      s.pcov(PredictionClass::MediumConfBim) * 100.0, 1),
                  TextTable::num(
                      (s.mpcov(PredictionClass::MediumConfBim) +
                       s.mpcov(PredictionClass::LowConfBim)) * 100.0,
                      1)});
    }
    r.addTable(ReportTable{"intervals-" + toLower(trace_name),
                           trace_name + " on " + label +
                               ", interval = " +
                               std::to_string(interval) + " branches",
                           std::move(t)});
    r.addBlank();

    // Any further observers the user attached (e.g. --analysis=warmup)
    // report through the standard analysis sections; the interval view
    // is already printed above in its historical shape, so its slot is
    // dropped (in place — the run result is not reused afterwards).
    rr.analysis.intervals.reset();
    tagecon::bench::addRowAnalysis(r, rows.front(), "");
}

} // namespace

int
main(int argc, char** argv)
{
    auto opt = bench::parseOptions(argc, argv);
    // The bench needs the interval view; install it with a tenth of
    // the trace as its window, but an explicit
    // --analysis=intervals:len=N wins.
    if (!opt.analysis.intervals) {
        opt.analysis.intervals = true;
        opt.analysis.intervalLength =
            std::max<uint64_t>(1, opt.branchesPerTrace / 10);
    }
    Report r = bench::makeReport(
        "warmup",
        "Warming / phase-change analysis of the BIM classes",
        "Seznec, RR-7371 / HPCA 2011, Sec. 5.1", opt);

    analyze(r, "SERV-2", "16K", "tage16k", opt);
    analyze(r, "FP-1", "256K", "tage256k", opt);

    r.addText("expected shape: interval 0 carries the warming spike "
              "(highest BIM MKP); the phased SERV trace keeps "
              "re-spiking at working-set rotations while the "
              "stationary FP trace decays to a near-zero floor.");
    r.emit(opt.format, std::cout);
    return 0;
}
