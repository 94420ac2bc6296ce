/**
 * @file
 * Tests of the benchmark's own logic: the replay must reproduce the
 * engine unit for unit, spans must be per chunk, and the metric math
 * (medians, per-1000-branch and share bases, self time, the host
 * slowdown) must hold on hand-made inputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <regex>

#include "calibrate.hpp"
#include "layer_split.hpp"
#include "obs/metrics.hpp"
#include "obs/span_trace.hpp"
#include "replay.hpp"
#include "workloads.hpp"

using namespace tagecon;
using namespace perfbench;

namespace {

UnitResult
fromRun(const RunResult& rr)
{
    UnitResult u;
    u.stats = rr.stats;
    u.confusion = rr.confusion;
    u.allocations = rr.allocations;
    return u;
}

SweepPlan
smallPlan(uint64_t branches)
{
    SweepPlan plan = SweepPlan::over(
        {"tage16k+prob7+sfc", "tage64k+prob7+adaptive+sfc"},
        {"FP-1", "INT-1"}, branches, 7);
    EXPECT_TRUE(plan.validate());
    return plan;
}

obs::SpanEvent
span(const char* name, uint64_t start, uint64_t end, uint32_t tid = 0)
{
    obs::SpanEvent e;
    e.name = name;
    e.startNs = start;
    e.endNs = end;
    e.tid = tid;
    return e;
}

} // namespace

TEST(Replay, SweepMatchesRunSweepCell)
{
    const SweepPlan plan = smallPlan(3000);
    ReplayStats stats;
    const std::vector<UnitResult> replayed = replaySweep(plan, stats);
    const std::vector<SweepCell> cells = plan.cells();
    ASSERT_EQ(replayed.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        EXPECT_TRUE(replayed[i].ok) << i;
        EXPECT_TRUE(sameResult(replayed[i], fromRun(runSweepCell(cells[i]))))
            << "cell " << i;
    }
    // The adaptive row runs scalar, the other batched.
    EXPECT_EQ(stats.batchedBranches, 2u * 3000u);
    EXPECT_EQ(stats.scalarBranches, 2u * 3000u);
}

TEST(Replay, ServeMatchesEngine)
{
    const auto streams = StreamSet::roundRobin(40, {"FP-1", "INT-2"}, 700, 3);
    ServeOptions opts;
    opts.spec = "tage64k+sfc";
    opts.jobs = 1;
    opts.shards = 3;
    opts.poolPerShard = 2;
    opts.batch = 64;
    ServingEngine engine(opts);
    ASSERT_TRUE(engine.validate());
    ServeResult served;
    std::string error;
    obs::resetAllMetrics();
    obs::setMetricsEnabled(true);
    ASSERT_TRUE(engine.serve(streams, served, error)) << error;
    obs::setMetricsEnabled(false);

    ReplayStats stats;
    const std::vector<UnitResult> replayed =
        replayServe(streams, engine.options(), stats);
    ASSERT_EQ(replayed.size(), streams.size());
    for (size_t i = 0; i < streams.size(); ++i) {
        const StreamResult& sr = served.perStream[i];
        UnitResult u;
        u.stats = sr.stats;
        u.confusion = sr.confusion;
        u.allocations = sr.allocations;
        EXPECT_TRUE(sameResult(replayed[i], u)) << "stream " << i;
    }
    // Results cannot tell schedules apart; the pool counters can.
    EXPECT_EQ(stats.admissions,
              obs::counter("serve.pool.admissions").value());
    EXPECT_EQ(stats.snapshots, obs::counter("serve.pool.evictions").value());
    EXPECT_GT(stats.snapshots, 0u);
    EXPECT_GT(stats.parkedPeakBytes, 0u);
    EXPECT_EQ(stats.batchedBranches, 40u * 700u);
}

TEST(Replay, OracleMatchesBatchedEngineCell)
{
    const SweepPlan plan = smallPlan(2500);
    const SweepCell cell = plan.cells().front(); // batched row
    ReplayStats stats;
    const UnitResult u = oracle(
        {cell.spec, cell.trace, cell.branches, cell.seedSalt}, 0, stats);
    EXPECT_TRUE(u.ok);
    EXPECT_TRUE(sameResult(u, fromRun(runSweepCell(cell))));
    EXPECT_EQ(stats.snapshots, 1u);
    EXPECT_EQ(stats.scalarBranches, 2500u);
}

TEST(Replay, SpansArePerChunkNotPerBranch)
{
    SweepPlan plan =
        SweepPlan::over({"tage16k+prob7+sfc"}, {"FP-1"}, 2048 + 100, 1);
    ASSERT_TRUE(plan.validate());
    obs::startTracing();
    ReplayStats stats;
    (void)replaySweep(plan, stats);
    const LayerSplit split = splitLayers(obs::takeTraceEvents());
    obs::stopTracing();
    EXPECT_EQ(split.name("tage.predict_batched").calls, 5u);
    EXPECT_EQ(split.name("core.fold").calls, 5u);
    EXPECT_EQ(split.name("trace.fill").calls, 6u); // the last finds none
    EXPECT_EQ(split.name("sim.cell").calls, 1u);
    EXPECT_EQ(split.name("sim.make_predictor").calls, 1u);
}

TEST(Workloads, CheckSampleVisitsEveryRowInRange)
{
    const std::vector<size_t> sample = checkSample(160, 123);
    ASSERT_EQ(sample.size(), 16u);
    std::vector<int> per_row(4, 0);
    for (const size_t i : sample) {
        ASSERT_LT(i, 160u);
        ++per_row[i / 40];
    }
    for (const int n : per_row)
        EXPECT_EQ(n, 4);
    EXPECT_EQ(checkSample(5, 9).size(), 5u);
    EXPECT_TRUE(checkSample(0, 1).empty());
}

TEST(Workloads, DigestSeesEveryCount)
{
    UnitResult a;
    a.stats.record(PredictionClass::HighConfBim, false, 3);
    UnitResult b = a;
    EXPECT_EQ(digest({a}), digest({b}));
    b.confusion.record(true, true);
    EXPECT_NE(digest({a}), digest({b}));
    EXPECT_FALSE(sameResult(a, b));
    b = a;
    b.allocations = 1;
    EXPECT_NE(digest({a}), digest({b}));
}

TEST(MetricMath, MedianOfRounds)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    // One slow round among many does not move it.
    EXPECT_DOUBLE_EQ(median({10.0, 10.0, 10.0, 10.0, 1000.0}), 10.0);
}

TEST(MetricMath, PerKiloBranchAndShareBases)
{
    EXPECT_DOUBLE_EQ(perKiloBranch(5.0, 2000.0), 2.5);
    EXPECT_DOUBLE_EQ(perKiloBranch(5.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(share(1.0, 4.0), 0.25);
    EXPECT_DOUBLE_EQ(share(1.0, 0.0), 0.0);
}

TEST(MetricMath, SlowdownIsTheMeanCalibrationOverTheReference)
{
    const double ref = kReferenceSeconds;
    EXPECT_DOUBLE_EQ(slowdown(ref, ref), 1.0);
    EXPECT_DOUBLE_EQ(slowdown(ref, 2.0 * ref), 1.5);
    // A round at half the reference speed takes twice the wall time;
    // in reference seconds it is as long as at full speed.
    EXPECT_DOUBLE_EQ(2.0 / slowdown(2.0 * ref, 2.0 * ref), 1.0);
}

TEST(Calibration, EveryCallDoesTheSameWork)
{
    const Calibration a = calibrate();
    const Calibration b = calibrate();
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_NE(a.checksum, 0u);
    EXPECT_GT(a.seconds, 0.0);
    EXPECT_GT(b.seconds, 0.0);
}

TEST(MetricMath, SelfTimeSubtractsDirectChildrenOnly)
{
    const std::vector<obs::SpanEvent> events = {
        span("sim.cell", 0, 100),         // parent
        span("tage.snapshot", 10, 40),    // child
        span("core.fold", 15, 25),        // grandchild
        span("trace.fill", 50, 90),       // child
        span("serve.turn", 0, 50, 1),     // another thread
        span("trace.fill", 100, 120),     // adjacent, not nested
    };
    const std::vector<uint64_t> self = selfTimes(events);
    EXPECT_EQ(self, (std::vector<uint64_t>{30, 20, 10, 40, 50, 20}));

    const LayerSplit split = splitLayers(events);
    EXPECT_EQ(split.layer("sim"), 30u);
    EXPECT_EQ(split.layer("tage"), 20u);
    EXPECT_EQ(split.layer("core"), 10u);
    EXPECT_EQ(split.layer("trace"), 60u);
    EXPECT_EQ(split.layer("serve"), 50u);
    EXPECT_EQ(split.layer("none"), 0u);
    // Self times add back up to the busy time of both threads.
    EXPECT_EQ(split.selfSum(), 120u + 50u);
    EXPECT_EQ(split.name("trace.fill").calls, 2u);
    EXPECT_EQ(split.name("trace.fill").totalNs, 60u);
}

TEST(MetricMath, LayerIsTheNameBeforeTheFirstDot)
{
    EXPECT_EQ(layerOf("tage.predict_batched"), "tage");
    EXPECT_EQ(layerOf("serve.turn"), "serve");
    EXPECT_EQ(layerOf("nodot"), "nodot");
}

TEST(Names, WorkloadNamesAreWellFormedAndUnique)
{
    const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    std::vector<std::string> seen;
    for (const auto& w : workloads()) {
        EXPECT_TRUE(std::regex_match(w.name, name_re)) << w.name;
        EXPECT_EQ(std::count(seen.begin(), seen.end(), w.name), 0);
        seen.push_back(w.name);
        EXPECT_EQ(findWorkload(w.name), &w);
    }
    EXPECT_EQ(seen, (std::vector<std::string>{"paper-sweep", "serve-evict"}));
}
