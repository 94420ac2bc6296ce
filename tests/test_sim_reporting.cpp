/**
 * @file
 * Tests for the table/figure renderers.
 */

#include <gtest/gtest.h>

#include "sim/reporting.hpp"
#include "sim/sweep.hpp"
#include "trace/profiles.hpp"

namespace tagecon {
namespace {

SweepRow
tinyRow()
{
    return runSweepRows(SweepPlan::over({"tage16k+sfc"},
                                        traceNames(BenchmarkSet::Cbp1),
                                        2000))
        .front();
}

TEST(Reporting, CoverageTableHasAllTracesPlusAggregate)
{
    const SweepRow r = tinyRow();
    const TextTable t = coverageTable(r.perTrace, r.aggregate);
    EXPECT_EQ(t.rows(), 21u); // 20 traces + (all)
    const std::string s = t.toString();
    EXPECT_NE(s.find("FP-1"), std::string::npos);
    EXPECT_NE(s.find("SERV-5"), std::string::npos);
    EXPECT_NE(s.find("(all)"), std::string::npos);
    EXPECT_NE(s.find("high-conf-bim"), std::string::npos);
    EXPECT_NE(s.find("Wtag"), std::string::npos);
}

TEST(Reporting, MpkiBreakdownIncludesTotalColumn)
{
    const SweepRow r = tinyRow();
    const TextTable t = mpkiBreakdownTable(r.perTrace, r.aggregate);
    EXPECT_EQ(t.rows(), 21u);
    EXPECT_NE(t.toString().find("total-MPKI"), std::string::npos);
}

TEST(Reporting, MprateTableSelectsTraces)
{
    const SweepRow r = tinyRow();
    const TextTable t = mprateTable(r.perTrace, {"FP-1", "MM-3"});
    EXPECT_EQ(t.rows(), 2u);
    const std::string s = t.toString();
    EXPECT_NE(s.find("FP-1"), std::string::npos);
    EXPECT_NE(s.find("MM-3"), std::string::npos);
    EXPECT_EQ(s.find("SERV-1"), std::string::npos);
}

TEST(Reporting, MprateTableUnknownTracePanics)
{
    const SweepRow r = tinyRow();
    EXPECT_DEATH(mprateTable(r.perTrace, {"nope"}), "not in result set");
}

TEST(Reporting, ThreeClassRowFormat)
{
    ClassStats s;
    for (int i = 0; i < 800; ++i)
        s.record(PredictionClass::HighConfBim, i < 8, 1);
    for (int i = 0; i < 150; ++i)
        s.record(PredictionClass::NStag, i < 15, 1);
    for (int i = 0; i < 50; ++i)
        s.record(PredictionClass::Wtag, i < 20, 1);

    const auto row = threeClassRow("64K CBP1", s);
    ASSERT_EQ(row.size(), 4u);
    EXPECT_EQ(row[0], "64K CBP1");
    // high: Pcov 0.800, MPcov 8/43, MPrate 10 MKP
    EXPECT_EQ(row[1], "0.800-0.186 (10)");
    EXPECT_EQ(row[2], "0.150-0.349 (100)");
    EXPECT_EQ(row[3], "0.050-0.465 (400)");
}

// The Grunwald columns every comparison table shares: one header per
// ratio of BinaryConfidenceMetrics::fromClassStats(), each cell that
// ratio as a fraction, also when every denominator is 0.
TEST(Reporting, BinaryMetricCellsAreTheFromClassStatsFractions)
{
    TextTable t;
    addBinaryMetricColumns(t);
    EXPECT_EQ(t.headers(), (std::vector<std::string>{
                               "high cov", "SENS", "PVP", "SPEC", "PVN"}));

    ClassStats s;
    for (int i = 0; i < 800; ++i)
        s.record(PredictionClass::HighConfBim, i < 8, 1);
    for (int i = 0; i < 150; ++i)
        s.record(PredictionClass::NStag, i < 15, 1);
    for (int i = 0; i < 50; ++i)
        s.record(PredictionClass::Wtag, i < 20, 1);

    for (const ClassStats& stats : {s, ClassStats{}}) {
        const auto m = BinaryConfidenceMetrics::fromClassStats(stats);
        std::vector<std::string> row{"label"};
        addBinaryMetricCells(row, stats);
        EXPECT_EQ(row, (std::vector<std::string>{
                           "label", TextTable::frac(m.highCoverage()),
                           TextTable::frac(m.sens()),
                           TextTable::frac(m.pvp()),
                           TextTable::frac(m.spec()),
                           TextTable::frac(m.pvn())}));
    }

    // high: 792 right, 8 wrong; low: 165 right, 35 wrong.
    std::vector<std::string> row;
    addBinaryMetricCells(row, s);
    EXPECT_EQ(row, (std::vector<std::string>{"0.800", "0.828", "0.990",
                                             "0.814", "0.175"}));
    row.clear();
    addBinaryMetricCells(row, ClassStats{});
    EXPECT_EQ(row, std::vector<std::string>(5, "0.000"));
}

TEST(Reporting, SummarizeMentionsTraceAndConfig)
{
    const RunResult r =
        runSweepCell(SweepCell{"tage16k+sfc", "FP-2", 3000, 0, {}});
    const std::string s = summarize(r);
    EXPECT_NE(s.find("FP-2"), std::string::npos);
    EXPECT_NE(s.find("tage16k+sfc"), std::string::npos);
    EXPECT_NE(s.find("MPKI"), std::string::npos);
}

} // namespace
} // namespace tagecon
