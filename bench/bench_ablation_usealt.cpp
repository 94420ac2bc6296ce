/**
 * @file
 * Ablation of the USE_ALT_ON_NA mechanism (Sec. 3.1): the paper notes
 * that using the alternate prediction on weak ("newly allocated")
 * provider entries slightly improves accuracy, and that the Wtag class
 * stays ~30%+ mispredicted even with it. The two configurations are
 * the parameterized specs "tage64k:ualt=1" / "tage64k:ualt=0", run as
 * one declarative grid over both benchmark sets (--jobs=N).
 */

#include <iostream>

#include "bench_common.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    const auto opt = bench::parseOptions(argc, argv);
    Report r = bench::makeReport(
        "ablation_usealt", "Ablation: USE_ALT_ON_NA on/off (64Kbit)",
        "Seznec, RR-7371 / HPCA 2011, Sec. 3.1", opt);

    const std::vector<std::string> specs = {"tage64k:ualt=1",
                                            "tage64k:ualt=0"};
    const auto rows = bench::runGrid(specs, allTraceNames(), opt);
    const size_t cbp1_traces = traceNames(BenchmarkSet::Cbp1).size();

    TextTable t;
    t.addColumn("USE_ALT_ON_NA", TextTable::Align::Left);
    t.addColumn("CBP-1 misp/KI");
    t.addColumn("CBP-2 misp/KI");
    t.addColumn("Wtag MPrate MKP (CBP-1)");
    t.addColumn("Wtag MPrate MKP (CBP-2)");

    for (size_t i = 0; i < specs.size(); ++i) {
        const auto cbp1 = bench::sliceSet(rows[i], cbp1_traces, true);
        const auto cbp2 = bench::sliceSet(rows[i], cbp1_traces, false);
        t.addRow({i == 0 ? "enabled" : "disabled",
                  TextTable::num(cbp1.meanMpki, 3),
                  TextTable::num(cbp2.meanMpki, 3),
                  TextTable::num(
                      cbp1.aggregate.mprateMkp(PredictionClass::Wtag), 0),
                  TextTable::num(
                      cbp2.aggregate.mprateMkp(PredictionClass::Wtag),
                      0)});
    }
    r.addTable(ReportTable{"usealt", "", std::move(t)});

    r.addBlank();
    bench::addRowAnalysis(r, rows[0], "enabled");
    bench::addRowAnalysis(r, rows[1], "disabled");
    r.addText("expected shape: disabling USE_ALT_ON_NA slightly degrades "
              "overall accuracy; the Wtag class stays in the ~300 MKP "
              "range either way.");
    r.emit(opt.format, std::cout);
    return 0;
}
