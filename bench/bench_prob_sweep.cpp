/**
 * @file
 * Reproduces the Sec. 6.2 trade-off discussion: sweeping the
 * saturation probability p over {1, 1/4, 1/16, 1/128, 1/1024} on the
 * 16Kbit predictor / CBP-1 set, and reporting coverage, misprediction
 * coverage and misprediction rate of the high-confidence class, plus
 * the overall accuracy cost of the automaton change.
 *
 * The sweep is one declarative grid — the baseline automaton
 * ("tage16k") plus one "tage16k+probN" spec per probability — over
 * the shared parallel runner (--jobs=N).
 *
 * Paper anchor (16Kbit, CBP-1): with p = 1/16 the high-confidence
 * class reaches 79% coverage at 10 MKP / 22.3% misprediction
 * coverage, against 69% at 7 MKP / 12.8% with p = 1/128; the overall
 * accuracy cost of the automaton stays under 0.02 misp/KI.
 */

#include <iostream>

#include "bench_common.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    const auto opt = bench::parseOptions(argc, argv);
    Report r = bench::makeReport(
        "prob_sweep",
        "Sec. 6.2: saturation probability sweep (16Kbit, CBP-1)",
        "Seznec, RR-7371 / HPCA 2011, Sec. 6.2", opt);

    // Row 0 is the baseline automaton; the rest sweep log2(1/p).
    const std::vector<unsigned> log2ps = {0u, 2u, 4u, 7u, 10u};
    std::vector<std::string> specs = {"tage16k"};
    for (const unsigned log2p : log2ps)
        specs.push_back("tage16k+prob" + std::to_string(log2p));

    const auto rows =
        bench::runGrid(specs, traceNames(BenchmarkSet::Cbp1), opt);
    const SweepRow& baseline = rows.front();

    TextTable t;
    t.addColumn("p", TextTable::Align::Left);
    t.addColumn("high Pcov");
    t.addColumn("high MPcov");
    t.addColumn("high MPrate (MKP)");
    t.addColumn("misp/KI");
    t.addColumn("delta vs baseline");

    for (size_t i = 0; i < log2ps.size(); ++i) {
        const SweepRow& row = rows[i + 1];
        t.addRow({"1/" + std::to_string(1u << log2ps[i]),
                  TextTable::frac(row.aggregate.pcov(ConfidenceLevel::High)),
                  TextTable::frac(
                      row.aggregate.mpcov(ConfidenceLevel::High)),
                  TextTable::num(
                      row.aggregate.mprateMkp(ConfidenceLevel::High), 1),
                  TextTable::num(row.meanMpki, 3),
                  TextTable::num(row.meanMpki - baseline.meanMpki, 3)});
    }
    r.addTable(ReportTable{"prob_sweep", "", std::move(t)});

    r.addBlank();
    for (size_t i = 0; i < rows.size(); ++i)
        bench::addRowAnalysis(r, rows[i], specs[i]);
    r.addText("baseline automaton misp/KI: " +
              TextTable::num(baseline.meanMpki, 3));
    r.addText("expected shape: smaller p shrinks high-confidence "
              "coverage but cleans its misprediction rate; the accuracy "
              "cost of any p stays marginal.");
    r.emit(opt.format, std::cout);
    return 0;
}
