/**
 * @file
 * obs metrics tests: the enable gate (disabled sites are no-ops),
 * histogram bucket-boundary semantics (Prometheus `le` convention),
 * registry snapshot ordering, the two-section Prometheus dump, the
 * report table family — and the determinism contract: the scalar
 * (deterministic) section of a serve's or sweep's metrics is
 * byte-identical at any --jobs, with and without injected faults. The
 * concurrent-hammer tests double as the TSan workload for the counter
 * and histogram paths.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/metrics_export.hpp"
#include "serve/serving_engine.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "sim/trace_registry.hpp"
#include "util/failpoint.hpp"

namespace tagecon {
namespace {

/** Every test starts enabled with a zeroed registry, and re-disables. */
class ObsMetricsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::resetAllMetrics();
        obs::setMetricsEnabled(true);
    }

    void
    TearDown() override
    {
        obs::setMetricsEnabled(false);
        obs::resetAllMetrics();
    }
};

/** Render only the deterministic (scalar) section, one line each. */
std::string
scalarSection(const obs::MetricsSnapshot& snap)
{
    std::string out;
    for (const auto& s : snap.scalars)
        out += s.name + " " + std::to_string(s.value) + "\n";
    return out;
}

TEST_F(ObsMetricsTest, DisabledSitesAreNoOps)
{
    obs::Counter& c = obs::counter("test.gate.counter");
    obs::Gauge& g = obs::gauge("test.gate.gauge");
    obs::TimingHistogram& h = obs::timingHistogram("test.gate.hist");

    obs::setMetricsEnabled(false);
    c.add(7);
    g.set(42);
    h.record(100);
    {
        obs::ScopedTimer timer(h);
    }
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), 0u);

    obs::setMetricsEnabled(true);
    c.add(7);
    g.set(42);
    h.record(100);
    EXPECT_EQ(c.value(), 7u);
    EXPECT_EQ(g.value(), 42);
    EXPECT_EQ(h.count(), 1u);
}

TEST_F(ObsMetricsTest, RegistryHandsOutStableReferences)
{
    obs::Counter& a = obs::counter("test.same.name");
    obs::Counter& b = obs::counter("test.same.name");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
}

TEST_F(ObsMetricsTest, HistogramBucketBoundariesFollowLeConvention)
{
    const std::vector<uint64_t> bounds = {10, 20};
    obs::TimingHistogram h(bounds);

    // `le` convention: bucket b counts values <= bounds[b]; the last
    // bucket is the +Inf overflow.
    h.record(0);  // <= 10
    h.record(10); // <= 10 (boundary lands low)
    h.record(11); // <= 20
    h.record(20); // <= 20 (boundary lands low)
    h.record(21); // +Inf

    const std::vector<uint64_t> counts = h.bucketCounts();
    ASSERT_EQ(counts.size(), 3u);
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 0u + 10 + 11 + 20 + 21);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    for (const uint64_t c : h.bucketCounts())
        EXPECT_EQ(c, 0u);
}

TEST_F(ObsMetricsTest, HistogramQuantilesInterpolateWithinBuckets)
{
    obs::TimingHistogram empty({10, 20});
    EXPECT_EQ(empty.quantile(0.5), 0.0);

    obs::TimingHistogram h({100, 200, 400});
    for (int i = 0; i < 100; ++i)
        h.record(150); // all mass in the (100, 200] bucket
    const double p50 = h.quantile(0.50);
    EXPECT_GE(p50, 100.0);
    EXPECT_LE(p50, 200.0);
    // The overflow bucket reports its lower bound.
    obs::TimingHistogram over({100});
    over.record(5000);
    EXPECT_EQ(over.quantile(0.99), 100.0);
}

TEST_F(ObsMetricsTest, DefaultBoundsAreStrictlyIncreasing)
{
    const std::vector<uint64_t>& bounds = obs::defaultTimingBoundsNs();
    ASSERT_GE(bounds.size(), 2u);
    EXPECT_EQ(bounds.front(), 100u);
    for (size_t i = 1; i < bounds.size(); ++i)
        EXPECT_LT(bounds[i - 1], bounds[i]);
}

TEST_F(ObsMetricsTest, SnapshotMergesScalarsSorted)
{
    obs::counter("test.snap.b").add(2);
    obs::gauge("test.snap.a").set(-5);
    obs::counter("test.snap.c").add(9);
    const obs::MetricsSnapshot snap = obs::snapshotMetrics();
    for (size_t i = 1; i < snap.scalars.size(); ++i)
        EXPECT_LT(snap.scalars[i - 1].name, snap.scalars[i].name);
    bool saw_gauge = false;
    for (const auto& s : snap.scalars) {
        if (s.name == "test.snap.a") {
            saw_gauge = true;
            EXPECT_TRUE(s.isGauge);
            EXPECT_EQ(s.value, -5);
        }
    }
    EXPECT_TRUE(saw_gauge);
}

TEST_F(ObsMetricsTest, ConcurrentCounterAndHistogramUpdatesAreExact)
{
    // The TSan workload: many threads hammering the same handles. The
    // final sums must be exact — relaxed atomics lose no increments.
    obs::Counter& c = obs::counter("test.hammer.counter");
    obs::TimingHistogram& h = obs::timingHistogram("test.hammer.hist");
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 20000;

    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&c, &h, t] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                c.add();
                h.record((t + 1) * 100u);
            }
        });
    }
    for (auto& th : pool)
        th.join();

    EXPECT_EQ(c.value(), kThreads * kPerThread);
    EXPECT_EQ(h.count(), kThreads * kPerThread);
    uint64_t bucket_total = 0;
    for (const uint64_t b : h.bucketCounts())
        bucket_total += b;
    EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

TEST_F(ObsMetricsTest, PrometheusNamesAndDumpShape)
{
    EXPECT_EQ(obs::prometheusName("serve.turn.ns"),
              "tagecon_serve_turn_ns");
    EXPECT_EQ(obs::prometheusName("ckpt.bytes-written"),
              "tagecon_ckpt_bytes_written");

    obs::counter("test.dump.counter").add(4);
    obs::gauge("test.dump.gauge").set(7);
    obs::timingHistogram("test.dump.hist", nullptr).record(150);

    std::ostringstream os;
    obs::writePrometheusText(obs::snapshotMetrics(), os);
    const std::string text = os.str();

    const size_t det = text.find("# --- deterministic ---");
    const size_t tim = text.find("# --- timing (non-deterministic) ---");
    ASSERT_NE(det, std::string::npos);
    ASSERT_NE(tim, std::string::npos);
    EXPECT_LT(det, tim);

    // Scalars live in the deterministic section, histograms after it.
    const size_t counter_at =
        text.find("tagecon_test_dump_counter 4");
    ASSERT_NE(counter_at, std::string::npos);
    EXPECT_LT(counter_at, tim);
    EXPECT_NE(text.find("# TYPE tagecon_test_dump_counter counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE tagecon_test_dump_gauge gauge"),
              std::string::npos);

    const size_t hist_at =
        text.find("# TYPE tagecon_test_dump_hist histogram");
    ASSERT_NE(hist_at, std::string::npos);
    EXPECT_GT(hist_at, tim);
    EXPECT_NE(text.find("tagecon_test_dump_hist_bucket{le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("tagecon_test_dump_hist_sum 150"),
              std::string::npos);
    EXPECT_NE(text.find("tagecon_test_dump_hist_count 1"),
              std::string::npos);
}

TEST_F(ObsMetricsTest, ReportTableFamilyRespectsTimingToggle)
{
    obs::counter("test.table.counter").add(11);
    obs::timingHistogram("test.table.hist", nullptr).record(99);
    const obs::MetricsSnapshot snap = obs::snapshotMetrics();

    Report with_timing("t", "", "");
    obs::addMetricsTables(with_timing, snap, true);
    std::ostringstream a;
    with_timing.emit(ReportFormat::Csv, a);
    EXPECT_NE(a.str().find("test.table.counter,11"), std::string::npos);
    EXPECT_NE(a.str().find("test.table.hist"), std::string::npos);

    Report deterministic_only("t", "", "");
    obs::addMetricsTables(deterministic_only, snap, false);
    std::ostringstream b;
    deterministic_only.emit(ReportFormat::Csv, b);
    EXPECT_NE(b.str().find("test.table.counter,11"), std::string::npos);
    EXPECT_EQ(b.str().find("test.table.hist"), std::string::npos);
}

// ------------------------------------------- end-to-end determinism

std::vector<std::string>
twoCbp1Traces()
{
    std::vector<std::string> traces;
    std::string error;
    EXPECT_TRUE(resolveTraceSpecs({"cbp1"}, traces, error)) << error;
    EXPECT_GE(traces.size(), 2u);
    traces.resize(2);
    return traces;
}

/** Serve under metrics; return the rendered deterministic section. */
std::string
serveScalarDump(unsigned jobs, const std::string& faults)
{
    obs::resetAllMetrics();
    std::optional<failpoints::ScopedFaults> scoped;
    if (!faults.empty())
        scoped.emplace(faults);

    ServeOptions opts;
    opts.spec = "tage16k+sfc";
    opts.jobs = jobs;
    opts.shards = 8;
    opts.poolPerShard = 2;
    opts.batch = 97;
    opts.computeDigests = true;

    ServingEngine engine(opts);
    ServeResult result;
    std::string error;
    EXPECT_TRUE(engine.serve(
        StreamSet::roundRobin(16, twoCbp1Traces(), 600, 0), result,
        error))
        << error;
    return scalarSection(obs::snapshotMetrics());
}

TEST_F(ObsMetricsTest, ServeDeterministicSectionIsJobsInvariant)
{
    const std::string j1 = serveScalarDump(1, "");
    const std::string j4 = serveScalarDump(4, "");
    EXPECT_EQ(j1, j4);
    EXPECT_NE(j1.find("serve.predictions 9600"), std::string::npos)
        << j1;
    EXPECT_NE(j1.find("serve.streams.ok 16"), std::string::npos);
}

TEST_F(ObsMetricsTest, FaultedServeDeterministicSectionIsJobsInvariant)
{
    const std::string spec = "serve.worker.step:key=7,nth=3";
    const std::string j1 = serveScalarDump(1, spec);
    const std::string j4 = serveScalarDump(4, spec);
    EXPECT_EQ(j1, j4);
    EXPECT_NE(j1.find("serve.quarantines 1"), std::string::npos) << j1;
    EXPECT_NE(j1.find("serve.streams.quarantined 1"),
              std::string::npos);
}

TEST_F(ObsMetricsTest, ServeConstructsOnlyWhenAShardHoldsNoSpare)
{
    // 10 equal streams per shard, a pool of 2: each shard builds its
    // two residents and one spare, and every other admission, first
    // or not, reuses one of those three objects.
    ServeOptions opts;
    opts.spec = "tage16k+sfc";
    opts.shards = 4;
    opts.poolPerShard = 2;
    opts.batch = 64;
    ServingEngine engine(opts);
    ServeResult result;
    std::string error;
    ASSERT_TRUE(engine.serve(
        StreamSet::roundRobin(40, twoCbp1Traces(), 4 * opts.batch, 0),
        result, error))
        << error;
    // Four full turns and an empty one per stream, each an admission
    // except one empty turn per shard, whose stream is still resident.
    EXPECT_EQ(obs::counter("serve.pool.admissions").value(),
              40u * 5u - 4u);
    EXPECT_EQ(obs::counter("serve.pool.constructions").value(), 4u * 3u);
}

TEST_F(ObsMetricsTest, SweepCountersTrackPlanAndDedupAndAreJobsInvariant)
{
    auto run = [&](unsigned jobs) {
        obs::resetAllMetrics();
        SweepPlan plan = SweepPlan::over(
            {"tage16k+sfc", "tage16k+sfc", "gshare:hist=12+jrs"},
            twoCbp1Traces(), 400, 0);
        SweepOptions opt;
        opt.jobs = jobs;
        (void)runSweep(plan, opt);
        return scalarSection(obs::snapshotMetrics());
    };
    const std::string j1 = run(1);
    const std::string j4 = run(4);
    EXPECT_EQ(j1, j4);
    // 3 specs x 2 traces = 6 cells; the duplicated spec's 2 cells are
    // copies of the first occurrence's results.
    EXPECT_NE(j1.find("sweep.cells 6"), std::string::npos) << j1;
    EXPECT_NE(j1.find("sweep.cells.executed 4"), std::string::npos);
    EXPECT_NE(j1.find("sweep.cache.hits 2"), std::string::npos);
    // The executed cells form one column per trace: one source each,
    // and one sweep.cell.ns sample each.
    EXPECT_NE(j1.find("trace.sources.opened 2"), std::string::npos) << j1;
    EXPECT_EQ(obs::timingHistogram("sweep.cell.ns").count(), 2u);
}

TEST_F(ObsMetricsTest, ServeTurnLatencySamplesEveryTurnThatServedBranches)
{
    // Every stream serves exactly four full batches, then one empty
    // turn that finds its trace exhausted: five turns, four timed.
    constexpr unsigned kBatch = 64;
    constexpr uint64_t kStreams = 50;
    ServeOptions opts;
    opts.spec = "tage16k+sfc";
    opts.batch = kBatch;
    ServingEngine engine(opts);
    const auto streams = StreamSet::roundRobin(kStreams, twoCbp1Traces(),
                                               4 * kBatch, 0);
    ServeResult result;
    std::string error;
    ASSERT_TRUE(engine.serve(streams, result, error)) << error;
    const uint64_t turns = obs::counter("serve.turns").value();
    const obs::TimingHistogram& turn_ns =
        obs::timingHistogram("serve.turn.ns");
    EXPECT_EQ(turns, 5 * kStreams);
    EXPECT_EQ(turn_ns.count(), turns - kStreams);

    // With metrics off the turn takes no sample.
    obs::setMetricsEnabled(false);
    ASSERT_TRUE(engine.serve(streams, result, error)) << error;
    EXPECT_EQ(turn_ns.count(), turns - kStreams);
}

} // namespace
} // namespace tagecon
