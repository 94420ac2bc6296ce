#include "sim/reporting.hpp"

#include <sstream>

#include "core/binary_metrics.hpp"
#include "util/logging.hpp"

namespace tagecon {

namespace {

/** @p factor * num / den as a cell, 0 when the denominator is 0. */
std::string
scaledRatioCell(double factor, uint64_t num, uint64_t den,
                int decimals)
{
    const double ratio = den == 0 ? 0.0
                                  : factor * static_cast<double>(num) /
                                        static_cast<double>(den);
    return TextTable::num(ratio, decimals);
}

} // namespace

std::string
pctCell(uint64_t num, uint64_t den, int decimals)
{
    return scaledRatioCell(100.0, num, den, decimals);
}

std::string
ratePerKiloCell(uint64_t num, uint64_t den, int decimals)
{
    return scaledRatioCell(1000.0, num, den, decimals);
}

BimSplit
bimSplit(const ClassStats& stats)
{
    BimSplit split;
    for (const auto c :
         {PredictionClass::HighConfBim, PredictionClass::MediumConfBim,
          PredictionClass::LowConfBim}) {
        split.predictions += stats.predictions(c);
        split.mispredictions += stats.mispredictions(c);
    }
    return split;
}

TextTable
coverageTable(const std::vector<RunResult>& per_trace,
              const ClassStats& aggregate)
{
    TextTable t;
    t.addColumn("trace", TextTable::Align::Left);
    for (const auto c : kAllPredictionClasses)
        t.addColumn(predictionClassName(c));
    for (const auto& rr : per_trace) {
        std::vector<std::string> row{rr.traceName};
        for (const auto c : kAllPredictionClasses)
            row.push_back(TextTable::num(rr.stats.pcov(c) * 100.0, 1));
        t.addRow(std::move(row));
    }
    std::vector<std::string> agg{"(all)"};
    for (const auto c : kAllPredictionClasses)
        agg.push_back(TextTable::num(aggregate.pcov(c) * 100.0, 1));
    t.addSeparator();
    t.addRow(std::move(agg));
    return t;
}

TextTable
mpkiBreakdownTable(const std::vector<RunResult>& per_trace,
                   const ClassStats& aggregate)
{
    TextTable t;
    t.addColumn("trace", TextTable::Align::Left);
    for (const auto c : kAllPredictionClasses)
        t.addColumn(predictionClassName(c));
    t.addColumn("total-MPKI");
    for (const auto& rr : per_trace) {
        std::vector<std::string> row{rr.traceName};
        for (const auto c : kAllPredictionClasses)
            row.push_back(TextTable::num(rr.stats.mpkiContribution(c), 3));
        row.push_back(TextTable::num(rr.stats.mpki(), 2));
        t.addRow(std::move(row));
    }
    std::vector<std::string> agg{"(all)"};
    for (const auto c : kAllPredictionClasses)
        agg.push_back(TextTable::num(aggregate.mpkiContribution(c), 3));
    agg.push_back(TextTable::num(aggregate.mpki(), 2));
    t.addSeparator();
    t.addRow(std::move(agg));
    return t;
}

TextTable
mprateTable(const std::vector<RunResult>& per_trace,
            const std::vector<std::string>& traces)
{
    TextTable t;
    t.addColumn("trace", TextTable::Align::Left);
    for (const auto c : kAllPredictionClasses)
        t.addColumn(predictionClassName(c));
    t.addColumn("average");

    for (const auto& want : traces) {
        const RunResult* found = nullptr;
        for (const auto& rr : per_trace) {
            if (rr.traceName == want) {
                found = &rr;
                break;
            }
        }
        TAGECON_ASSERT(found != nullptr, "mprateTable: trace '" + want +
                                             "' not in result set");
        std::vector<std::string> row{want};
        for (const auto c : kAllPredictionClasses)
            row.push_back(TextTable::num(found->stats.mprateMkp(c), 0));
        row.push_back(TextTable::num(found->stats.totalMkp(), 0));
        t.addRow(std::move(row));
    }
    return t;
}

TextTable
classRateTable(const ClassStats& stats)
{
    TextTable t;
    t.addColumn("class", TextTable::Align::Left);
    t.addColumn("MPrate (MKP)");
    for (const auto c : kAllPredictionClasses) {
        t.addRow({predictionClassName(c),
                  TextTable::num(stats.mprateMkp(c), 0)});
    }
    t.addRow({"average", TextTable::num(stats.totalMkp(), 0)});
    return t;
}

std::vector<std::string>
threeClassRow(const std::string& label, const ClassStats& stats)
{
    std::vector<std::string> row{label};
    for (const auto level : kAllConfidenceLevels) {
        std::ostringstream cell;
        cell << TextTable::frac(stats.pcov(level)) << "-"
             << TextTable::frac(stats.mpcov(level)) << " ("
             << TextTable::num(stats.mprateMkp(level), 0) << ")";
        row.push_back(cell.str());
    }
    return row;
}

TextTable
threeClassTable()
{
    TextTable t;
    t.addColumn("config", TextTable::Align::Left);
    t.addColumn("high conf");
    t.addColumn("medium conf");
    t.addColumn("low conf");
    return t;
}

void
addBinaryMetricColumns(TextTable& t)
{
    for (const char* name : {"high cov", "SENS", "PVP", "SPEC", "PVN"})
        t.addColumn(name);
}

void
addBinaryMetricCells(std::vector<std::string>& row,
                     const ClassStats& stats)
{
    const auto m = BinaryConfidenceMetrics::fromClassStats(stats);
    for (const double ratio :
         {m.highCoverage(), m.sens(), m.pvp(), m.spec(), m.pvn()})
        row.push_back(TextTable::frac(ratio));
}

std::string
summarize(const RunResult& result)
{
    std::ostringstream os;
    os << result.traceName << " [" << result.configName
       << "]: " << result.stats.totalPredictions() << " branches, "
       << TextTable::num(result.stats.mpki(), 2) << " MPKI, "
       << TextTable::num(result.stats.totalMkp(), 1) << " MKP";
    return os.str();
}

// ------------------------------------------- analysis result tables

ReportTable
intervalAnalysisTable(const IntervalAnalysis& ia, const std::string& id)
{
    ReportTable rt;
    rt.id = id;
    rt.table.addColumn("interval", TextTable::Align::Left);
    rt.table.addColumn("predictions");
    rt.table.addColumn("total MKP");
    rt.table.addColumn("BIM MKP");
    rt.table.addColumn("medium-conf-bim Pcov %");
    rt.table.addColumn("low+med-bim MPcov %");

    for (size_t i = 0; i < ia.intervals.size(); ++i) {
        const ClassStats& s = ia.intervals[i];
        const BimSplit bim = bimSplit(s);
        std::string label = std::to_string(i);
        if (i >= ia.completeIntervals)
            label += " (partial)";
        rt.table.addRow(
            {std::move(label),
             TextTable::integer(s.totalPredictions()),
             TextTable::num(s.totalMkp(), 1),
             ratePerKiloCell(bim.mispredictions, bim.predictions, 1),
             TextTable::num(
                 s.pcov(PredictionClass::MediumConfBim) * 100.0, 1),
             TextTable::num(
                 (s.mpcov(PredictionClass::MediumConfBim) +
                  s.mpcov(PredictionClass::LowConfBim)) *
                     100.0,
                 1)});
    }
    return rt;
}

ReportTable
histogramAnalysisTable(const ClassStats& stats,
                       const ConfidenceHistogram& h,
                       const std::string& id)
{
    ReportTable rt;
    rt.id = id;
    rt.table.addColumn("class", TextTable::Align::Left);
    rt.table.addColumn("predictions");
    rt.table.addColumn("mispredictions");
    rt.table.addColumn("taken preds");
    rt.table.addColumn("taken misses");
    rt.table.addColumn("MPrate (MKP)");

    for (const auto c : kAllPredictionClasses) {
        const size_t i = classIndex(c);
        rt.table.addRow(
            {predictionClassName(c),
             TextTable::integer(stats.predictions(c)),
             TextTable::integer(stats.mispredictions(c)),
             TextTable::integer(h.takenPredictions[i]),
             TextTable::integer(h.takenMispredictions[i]),
             ratePerKiloCell(stats.mispredictions(c),
                             stats.predictions(c))});
    }
    rt.table.addSeparator();
    for (const auto level : kAllConfidenceLevels) {
        rt.table.addRow(
            {confidenceLevelName(level) + " (level)",
             TextTable::integer(stats.predictions(level)),
             TextTable::integer(stats.mispredictions(level)), "", "",
             ratePerKiloCell(stats.mispredictions(level),
                             stats.predictions(level))});
    }
    return rt;
}

ReportTable
burstAnalysisTable(const BurstAnalysis& ba, const std::string& id)
{
    ReportTable rt;
    rt.id = id;
    rt.table.addColumn("BIM preds since last BIM miss",
                       TextTable::Align::Left);
    rt.table.addColumn("predictions");
    rt.table.addColumn("Pcov-of-BIM %");
    rt.table.addColumn("MPrate (MKP)");

    const uint64_t total = ba.totalPredictions();
    for (size_t d = 0; d < ba.predictions.size(); ++d) {
        const std::string label =
            d < ba.maxDistance
                ? std::to_string(d)
                : (">= " + std::to_string(ba.maxDistance));
        rt.table.addRow({label, TextTable::integer(ba.predictions[d]),
                         pctCell(ba.predictions[d], total, 2),
                         ratePerKiloCell(ba.mispredictions[d],
                                         ba.predictions[d])});
    }
    return rt;
}

ReportTable
perBranchAnalysisTable(const PerBranchAnalysis& pa,
                       const std::string& id)
{
    ReportTable rt;
    rt.id = id;
    rt.table.addColumn("pc", TextTable::Align::Left);
    rt.table.addColumn("predictions");
    rt.table.addColumn("mispredictions");
    rt.table.addColumn("MPrate (MKP)");

    for (const auto& b : pa.top) {
        std::ostringstream pc;
        pc << "0x" << std::hex << b.pc;
        rt.table.addRow({pc.str(), TextTable::integer(b.predictions),
                         TextTable::integer(b.mispredictions),
                         TextTable::num(b.mprateMkp(), 0)});
    }
    return rt;
}

ReportTable
warmupAnalysisTable(const WarmupAnalysis& wa, const std::string& id)
{
    ReportTable rt;
    rt.id = id;
    rt.table.addColumn("metric", TextTable::Align::Left);
    rt.table.addColumn("value");
    rt.table.addRow(
        {"interval length", TextTable::integer(wa.intervalLength)});
    rt.table.addRow(
        {"threshold (MKP)", TextTable::num(wa.thresholdMkp, 0)});
    rt.table.addRow({"converged", wa.converged ? "yes" : "no"});
    rt.table.addRow({"warmup intervals",
                     TextTable::integer(wa.warmupIntervals)});
    rt.table.addRow(
        {"warmup branches", TextTable::integer(wa.warmupBranches)});
    rt.table.addRow({"first interval MKP",
                     TextTable::num(wa.firstIntervalMkp, 1)});
    rt.table.addRow({"converged interval MKP",
                     TextTable::num(wa.convergedIntervalMkp, 1)});
    return rt;
}

void
addAnalysisSections(Report& r, const RunResult& result,
                    const std::string& id_prefix,
                    const std::string& label)
{
    const RunAnalysis& a = result.analysis;
    if (a.empty())
        return;

    auto headed = [&](ReportTable rt, const char* observer) {
        rt.heading = label + " [" + observer + "]";
        r.addTable(std::move(rt));
        r.addBlank();
    };

    if (a.intervals)
        headed(intervalAnalysisTable(*a.intervals,
                                     id_prefix + "-intervals"),
               "intervals");
    if (a.histogram)
        headed(histogramAnalysisTable(result.stats, *a.histogram,
                                      id_prefix + "-histogram"),
               "histogram");
    if (a.burst)
        headed(burstAnalysisTable(*a.burst, id_prefix + "-burst"),
               "burst");
    if (a.perBranch)
        headed(perBranchAnalysisTable(*a.perBranch,
                                      id_prefix + "-perbranch"),
               "perbranch");
    if (a.warmup)
        headed(warmupAnalysisTable(*a.warmup, id_prefix + "-warmup"),
               "warmup");
}

} // namespace tagecon
