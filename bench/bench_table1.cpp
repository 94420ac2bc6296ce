/**
 * @file
 * Reproduces Table 1 of the paper: the three simulated TAGE
 * configurations and their misprediction rates (misp/KI) on the CBP-1
 * and CBP-2 benchmark sets, with the baseline (unmodified) update
 * automaton. Declarative: one SweepPlan (3 sizes x both sets) +
 * report emitters; the configuration rows come straight from the
 * TageConfig geometry.
 */

#include <iostream>

#include "bench_common.hpp"
#include "tage/tage_config.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    const auto opt = bench::parseOptions(argc, argv);
    Report r = bench::makeReport("table1",
                                 "Table 1: simulated configurations",
                                 "Seznec, RR-7371 / HPCA 2011, Table 1",
                                 opt);

    TextTable t;
    t.addColumn("", TextTable::Align::Left);
    t.addColumn("Small");
    t.addColumn("Medium");
    t.addColumn("Large");

    const std::vector<TageConfig> configs = TageConfig::paperConfigs();

    std::vector<std::string> storage{"Storage budget (Kbits)"};
    std::vector<std::string> tables{"Number of tables"};
    std::vector<std::string> minh{"Min Hist length"};
    std::vector<std::string> maxh{"Max Hist Length"};
    for (const auto& cfg : configs) {
        storage.push_back(TextTable::num(
            static_cast<double>(cfg.storageBits()) / 1024.0, 1));
        tables.push_back("1 + " + std::to_string(cfg.numTaggedTables()));
        minh.push_back(std::to_string(cfg.tagged.front().historyLength));
        maxh.push_back(std::to_string(cfg.tagged.back().historyLength));
    }
    t.addRow(storage);
    t.addRow(tables);
    t.addRow(minh);
    t.addRow(maxh);

    const auto sizes = bench::paperSizes();
    const auto rows =
        bench::runGrid(bench::specsOf(sizes), allTraceNames(), opt);
    const size_t cbp1_traces = traceNames(BenchmarkSet::Cbp1).size();

    std::vector<std::string> cbp1_row{"CBP-1 misp/KI"};
    std::vector<std::string> cbp2_row{"CBP-2 misp/KI"};
    for (const auto& row : rows) {
        cbp1_row.push_back(TextTable::num(
            bench::sliceSet(row, cbp1_traces, true).meanMpki, 2));
        cbp2_row.push_back(TextTable::num(
            bench::sliceSet(row, cbp1_traces, false).meanMpki, 2));
    }
    t.addSeparator();
    t.addRow(cbp1_row);
    t.addRow(cbp2_row);

    r.addTable(ReportTable{"table1", "", std::move(t)});

    r.addBlank();
    for (size_t i = 0; i < rows.size(); ++i)
        bench::addRowAnalysis(r, rows[i], toLower(sizes[i].label));
    r.addText("paper reference (Table 1): CBP-1 4.21 / 2.54 / 2.18,"
              " CBP-2 4.61 / 3.87 / 3.47 misp/KI\n"
              "expected shape: misp/KI decreases with size; CBP-2 is"
              " the harder set on the medium/large predictors");
    r.emit(opt.format, std::cout);
    return 0;
}
