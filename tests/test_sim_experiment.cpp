/**
 * @file
 * Tests for the simulation driver and aggregation: the drive kernel,
 * runTrace() and the per-row folds of a sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/registry.hpp"
#include "sim/sweep.hpp"
#include "tage/graded_tage.hpp"
#include "test_support.hpp"
#include "trace/profiles.hpp"

namespace tagecon {
namespace {

RunResult
runSmall(TraceSource& trace)
{
    GradedTage predictor(TageConfig::small16K());
    return runTrace(trace, predictor);
}

TEST(RunTrace, CountsMatchTraceLength)
{
    SyntheticTrace t = makeTrace("FP-1", 20000);
    const RunResult r = runSmall(t);
    EXPECT_EQ(r.stats.totalPredictions(), 20000u);
    EXPECT_EQ(r.confusion.total(), 20000u);
    EXPECT_EQ(r.traceName, "FP-1");
    EXPECT_EQ(r.configName, "tage-16K");
    EXPECT_GE(r.stats.instructions(), 20000u);
}

TEST(RunTrace, IsDeterministic)
{
    SyntheticTrace t1 = makeTrace("MM-1", 30000);
    SyntheticTrace t2 = makeTrace("MM-1", 30000);
    const RunResult a = runSmall(t1);
    const RunResult b = runSmall(t2);
    EXPECT_EQ(a.stats.totalMispredictions(),
              b.stats.totalMispredictions());
    for (const auto c : kAllPredictionClasses) {
        EXPECT_EQ(a.stats.predictions(c), b.stats.predictions(c));
        EXPECT_EQ(a.stats.mispredictions(c), b.stats.mispredictions(c));
    }
}

// The multi-predictor runTrace() groups only the TAGE stacks that
// stand at one point of their streams: a stack warmed on another trace
// runs alone, the two fresh ones share, and every result and final
// state is a solo run's.
TEST(RunTrace, GroupsOnlyStacksAtOneStreamPosition)
{
    const std::vector<std::string> specs = {
        "tage16k+sfc", "tage16k+prob7+sfc", "tage16k+prob3+jrs"};
    const auto build = [&](size_t k) {
        auto p = makePredictor(specs[k]);
        if (k == 1) {
            SyntheticTrace warm = makeTrace("INT-1", 5000);
            std::ignore = runTrace(warm, *p);
        }
        return p;
    };
    std::vector<std::unique_ptr<GradedPredictor>> owned;
    std::vector<GradedPredictor*> column;
    for (size_t k = 0; k < specs.size(); ++k) {
        owned.push_back(build(k));
        column.push_back(owned.back().get());
    }
    obs::resetAllMetrics();
    obs::setMetricsEnabled(true);
    SyntheticTrace trace = makeTrace("FP-1", 20000);
    const std::vector<RunResult> got = runTrace(trace, column);
    obs::setMetricsEnabled(false);
    EXPECT_EQ(obs::counter("sweep.cells.following").value(), 1u);

    for (size_t k = 0; k < specs.size(); ++k) {
        SCOPED_TRACE(specs[k]);
        const auto solo = build(k);
        SyntheticTrace alone = makeTrace("FP-1", 20000);
        const RunResult want = runTrace(alone, *solo);
        for (const auto c : kAllPredictionClasses) {
            EXPECT_EQ(got[k].stats.predictions(c), want.stats.predictions(c));
            EXPECT_EQ(got[k].stats.mispredictions(c),
                      want.stats.mispredictions(c));
        }
        EXPECT_TRUE(snapshotBytes(*column[k]) == snapshotBytes(*solo));
    }
}

TEST(RunTrace, AdaptiveRequiresProbabilisticSaturation)
{
    GradedTageOptions opt;
    opt.adaptive = true; // but the config lacks probabilisticSaturation
    EXPECT_DEATH(GradedTage(TageConfig::small16K(), opt),
                 "probabilisticSaturation");
}

TEST(RunTrace, AdaptiveRunReportsFinalProbability)
{
    SyntheticTrace t = makeTrace("300.twolf", 200000);
    GradedTageOptions opt;
    opt.adaptive = true;
    opt.adaptiveConfig.epochLength = 16384;
    GradedTage predictor(
        TageConfig::small16K().withProbabilisticSaturation(7), opt);
    const RunResult r = runTrace(t, predictor);
    EXPECT_LE(r.finalLog2Prob, opt.adaptiveConfig.maxLog2);
    EXPECT_GE(r.finalLog2Prob, opt.adaptiveConfig.minLog2);
}

TEST(RunTrace, RecordsAllocations)
{
    SyntheticTrace t = makeTrace("INT-1", 20000);
    const RunResult r = runSmall(t);
    EXPECT_GT(r.allocations, 0u);
}

TEST(DriveBranches, StopsAtTheCapAndResumesWhereItStopped)
{
    // Caps that end mid-chunk and span several chunks: the pieces must
    // fold to exactly the one-shot run.
    SyntheticTrace whole = makeTrace("SERV-3", 3000);
    const RunResult once = runSmall(whole);

    // The per-branch oracle: a scalar loop that records each branch's
    // binary confusion as it resolves.
    SyntheticTrace reference = makeTrace("SERV-3", 3000);
    GradedTage scalar(TageConfig::small16K());
    BinaryConfidenceMetrics oracle;
    BranchRecord rec;
    while (reference.next(rec)) {
        const Prediction p = scalar.predict(rec.pc);
        oracle.record(p.confidence == ConfidenceLevel::High,
                      p.taken == rec.taken);
        scalar.update(rec.pc, p, rec.taken);
    }

    SyntheticTrace trace = makeTrace("SERV-3", 3000);
    GradedTage predictor(TageConfig::small16K());
    DriveChunk chunk;
    ClassStats stats;
    const DriveSink sink{&predictor, &stats, {}};
    uint64_t total = 0;
    for (const uint64_t cap : {1000u, 1u, 500u, 5000u}) {
        const uint64_t n = driveBranches(trace, {&sink, 1}, cap, chunk);
        EXPECT_EQ(n, std::min<uint64_t>(cap, 3000 - total));
        total += n;
    }
    EXPECT_EQ(total, 3000u);
    EXPECT_EQ(driveBranches(trace, {&sink, 1}, 10, chunk), 0u);
    for (const auto c : kAllPredictionClasses) {
        EXPECT_EQ(stats.predictions(c), once.stats.predictions(c));
        EXPECT_EQ(stats.mispredictions(c), once.stats.mispredictions(c));
    }
    EXPECT_EQ(stats.instructions(), once.stats.instructions());
    // The confusion derived from the capped pieces' ClassStats, and
    // the one runTrace() fills when its run ends, equal the oracle.
    const auto derived = BinaryConfidenceMetrics::fromClassStats(stats);
    for (const BinaryConfidenceMetrics* m : {&derived, &once.confusion}) {
        EXPECT_EQ(m->highCorrect(), oracle.highCorrect());
        EXPECT_EQ(m->highWrong(), oracle.highWrong());
        EXPECT_EQ(m->lowCorrect(), oracle.lowCorrect());
        EXPECT_EQ(m->lowWrong(), oracle.lowWrong());
    }
    EXPECT_GT(oracle.highCorrect(), 0u);
    EXPECT_GT(oracle.lowWrong(), 0u);
    EXPECT_EQ(predictor.allocations(), once.allocations);
}

TEST(RunSweepCell, EquivalentToManualTrace)
{
    const RunResult a =
        runSweepCell(SweepCell{"tage16k+sfc", "SERV-1", 15000, 0, {}});
    SyntheticTrace t = makeTrace("SERV-1", 15000);
    auto predictor = makePredictor("tage16k+sfc");
    const RunResult b = runTrace(t, *predictor);
    EXPECT_EQ(a.stats.totalPredictions(), 15000u);
    EXPECT_EQ(a.stats.totalMispredictions(),
              b.stats.totalMispredictions());
    EXPECT_EQ(a.allocations, b.allocations);
}

TEST(RunSweepRows, AggregateEqualsSumOfTraces)
{
    const auto rows = runSweepRows(SweepPlan::over(
        {"tage16k+sfc"}, traceNames(BenchmarkSet::Cbp1), 5000));
    ASSERT_EQ(rows.size(), 1u);
    const SweepRow& r = rows[0];
    ASSERT_EQ(r.perTrace.size(), 20u);

    ClassStats manual;
    double mpki_sum = 0.0;
    for (const auto& rr : r.perTrace) {
        manual.merge(rr.stats);
        mpki_sum += rr.stats.mpki();
    }
    EXPECT_EQ(r.aggregate.totalPredictions(),
              manual.totalPredictions());
    EXPECT_EQ(r.aggregate.totalMispredictions(),
              manual.totalMispredictions());
    EXPECT_NEAR(r.meanMpki, mpki_sum / 20.0, 1e-12);
}

TEST(RunSweepRows, TracesInCanonicalOrder)
{
    const auto& names = traceNames(BenchmarkSet::Cbp2);
    const auto rows = runSweepRows(
        SweepPlan::over({"tage16k+sfc"}, names, 2000));
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_EQ(rows[0].perTrace.size(), names.size());
    for (size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(rows[0].perTrace[i].traceName, names[i]);
}

} // namespace
} // namespace tagecon
