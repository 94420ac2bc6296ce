/**
 * @file
 * Tests for the sweep subsystem (sim/sweep.hpp): plan validation and
 * cell enumeration, bit-identical results across thread counts, seed
 * salting, row pooling equivalence with a serial fold of cells, the
 * failure of a cell whose trace file breaks mid-stream, and columns
 * whose TAGE stacks share one index pass per lookup geometry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>

#include "analysis/analysis_config.hpp"
#include "obs/metrics.hpp"
#include "sim/registry.hpp"
#include "sim/sweep.hpp"
#include "sim/trace_registry.hpp"
#include "test_support.hpp"
#include "trace/profiles.hpp"
#include "trace/trace_io.hpp"

namespace tagecon {
namespace {

/** Field-by-field equality of two RunResults (exact, not approx). */
void
expectIdentical(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.traceName, b.traceName);
    EXPECT_EQ(a.configName, b.configName);
    EXPECT_EQ(a.stats.totalPredictions(), b.stats.totalPredictions());
    EXPECT_EQ(a.stats.totalMispredictions(),
              b.stats.totalMispredictions());
    EXPECT_EQ(a.stats.instructions(), b.stats.instructions());
    EXPECT_EQ(a.confusion.highCorrect(), b.confusion.highCorrect());
    EXPECT_EQ(a.confusion.highWrong(), b.confusion.highWrong());
    EXPECT_EQ(a.confusion.lowCorrect(), b.confusion.lowCorrect());
    EXPECT_EQ(a.confusion.lowWrong(), b.confusion.lowWrong());
    EXPECT_EQ(a.finalLog2Prob, b.finalLog2Prob);
    EXPECT_EQ(a.allocations, b.allocations);
    EXPECT_EQ(a.storageBits, b.storageBits);
}

/** Exact equality of two ClassStats accumulators. */
void
expectStatsIdentical(const ClassStats& a, const ClassStats& b)
{
    for (const auto c : kAllPredictionClasses) {
        EXPECT_EQ(a.predictions(c), b.predictions(c));
        EXPECT_EQ(a.mispredictions(c), b.mispredictions(c));
    }
    EXPECT_EQ(a.instructions(), b.instructions());
}

/** Exact equality of two analysis bags, slot by slot. */
void
expectAnalysisIdentical(const RunAnalysis& a, const RunAnalysis& b)
{
    ASSERT_EQ(a.intervals.has_value(), b.intervals.has_value());
    if (a.intervals) {
        EXPECT_EQ(a.intervals->intervalLength,
                  b.intervals->intervalLength);
        EXPECT_EQ(a.intervals->completeIntervals,
                  b.intervals->completeIntervals);
        ASSERT_EQ(a.intervals->intervals.size(),
                  b.intervals->intervals.size());
        for (size_t i = 0; i < a.intervals->intervals.size(); ++i)
            expectStatsIdentical(a.intervals->intervals[i],
                                 b.intervals->intervals[i]);
    }
    ASSERT_EQ(a.histogram.has_value(), b.histogram.has_value());
    if (a.histogram) {
        EXPECT_EQ(a.histogram->takenPredictions,
                  b.histogram->takenPredictions);
        EXPECT_EQ(a.histogram->takenMispredictions,
                  b.histogram->takenMispredictions);
    }
    ASSERT_EQ(a.perBranch.has_value(), b.perBranch.has_value());
    if (a.perBranch) {
        EXPECT_EQ(a.perBranch->distinctBranches,
                  b.perBranch->distinctBranches);
        ASSERT_EQ(a.perBranch->top.size(), b.perBranch->top.size());
        for (size_t i = 0; i < a.perBranch->top.size(); ++i) {
            EXPECT_EQ(a.perBranch->top[i].pc, b.perBranch->top[i].pc);
            EXPECT_EQ(a.perBranch->top[i].predictions,
                      b.perBranch->top[i].predictions);
            EXPECT_EQ(a.perBranch->top[i].mispredictions,
                      b.perBranch->top[i].mispredictions);
        }
    }
    ASSERT_EQ(a.burst.has_value(), b.burst.has_value());
    if (a.burst) {
        EXPECT_EQ(a.burst->maxDistance, b.burst->maxDistance);
        EXPECT_EQ(a.burst->predictions, b.burst->predictions);
        EXPECT_EQ(a.burst->mispredictions, b.burst->mispredictions);
    }
    ASSERT_EQ(a.warmup.has_value(), b.warmup.has_value());
    if (a.warmup) {
        EXPECT_EQ(a.warmup->converged, b.warmup->converged);
        EXPECT_EQ(a.warmup->warmupIntervals,
                  b.warmup->warmupIntervals);
        EXPECT_EQ(a.warmup->warmupBranches, b.warmup->warmupBranches);
        EXPECT_EQ(a.warmup->firstIntervalMkp,
                  b.warmup->firstIntervalMkp);
        EXPECT_EQ(a.warmup->convergedIntervalMkp,
                  b.warmup->convergedIntervalMkp);
    }
}

TEST(SweepPlan, CellsAreSpecMajorInPlanOrder)
{
    const SweepPlan plan = SweepPlan::over(
        {"tage16k", "gshare"}, {"FP-1", "INT-1", "SERV-1"}, 1000, 7);
    const auto cells = plan.cells();
    ASSERT_EQ(cells.size(), 6u);
    EXPECT_EQ(cells[0].spec, "tage16k");
    EXPECT_EQ(cells[0].trace, "FP-1");
    EXPECT_EQ(cells[2].trace, "SERV-1");
    EXPECT_EQ(cells[3].spec, "gshare");
    EXPECT_EQ(cells[3].trace, "FP-1");
    for (const auto& cell : cells) {
        EXPECT_EQ(cell.branches, 1000u);
        EXPECT_EQ(cell.seedSalt, 7u);
    }
}

TEST(SweepPlan, ValidateCanonicalizesSpecsInPlace)
{
    SweepPlan plan = SweepPlan::over(
        {"TAGE16K+SFC+Prob7", "gshare:hist=9,entries=10+jrs"},
        {"FP-1"}, 1000);
    ASSERT_TRUE(plan.validate());
    EXPECT_EQ(plan.specs[0], "tage16k+prob7+sfc");
    EXPECT_EQ(plan.specs[1], "gshare:entries=10,hist=9+jrs");
}

TEST(SweepPlan, ValidateRejectsBadSpecsTracesAndEmptyGrids)
{
    std::string error;
    SweepPlan plan = SweepPlan::over({"no-such-base"}, {"FP-1"}, 1000);
    EXPECT_FALSE(plan.validate(&error));
    EXPECT_NE(error.find("unknown predictor base"), std::string::npos);

    plan = SweepPlan::over({"tage16k"}, {"NOT-A-TRACE"}, 1000);
    EXPECT_FALSE(plan.validate(&error));
    EXPECT_NE(error.find("unknown trace"), std::string::npos);

    plan = SweepPlan::over({}, {"FP-1"}, 1000);
    EXPECT_FALSE(plan.validate(&error));

    plan = SweepPlan::over({"tage16k"}, {"FP-1"}, 0);
    EXPECT_FALSE(plan.validate(&error));
}

TEST(SweepPlan, ResolveTraceArgsExpandsSetAliases)
{
    std::vector<std::string> out;
    std::string error;
    ASSERT_TRUE(SweepPlan::resolveTraceArgs({"cbp1"}, out, error));
    EXPECT_EQ(out, traceNames(BenchmarkSet::Cbp1));

    ASSERT_TRUE(SweepPlan::resolveTraceArgs({"ALL"}, out, error));
    EXPECT_EQ(out, allTraceNames());

    ASSERT_TRUE(
        SweepPlan::resolveTraceArgs({"FP-1", "cbp2"}, out, error));
    EXPECT_EQ(out.size(), 1u + traceNames(BenchmarkSet::Cbp2).size());
    EXPECT_EQ(out.front(), "FP-1");

    EXPECT_FALSE(SweepPlan::resolveTraceArgs({"nope"}, out, error));
    EXPECT_NE(error.find("unknown trace"), std::string::npos);
}

// The acceptance property of the whole subsystem: a multithreaded
// sweep is bit-identical to the serial one, cell by cell.
TEST(SweepRunner, ParallelResultsIdenticalToSerial)
{
    const SweepPlan plan = SweepPlan::over(
        {"tage64k+prob7+sfc", "gshare:hist=17+jrs", "ltage16k+sfc"},
        {"FP-1", "INT-3", "SERV-1", "300.twolf"}, 20000);

    const auto serial = runSweep(plan, SweepOptions{1});
    const auto parallel = runSweep(plan, SweepOptions{4});
    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), plan.cellCount());
    for (size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i], parallel[i]);
}

// The PR's acceptance property: observer output pooled through the
// sweep is bit-identical at any job count, cell by cell, slot by slot.
TEST(SweepRunner, ObserverResultsIdenticalAcrossJobCounts)
{
    SweepPlan plan = SweepPlan::over(
        {"tage16k+sfc", "gshare+jrs"}, {"FP-1", "SERV-1", "INT-3"},
        20000);
    plan.analysis.intervals = true;
    plan.analysis.intervalLength = 5000;
    plan.analysis.histogram = true;
    plan.analysis.perBranch = true;
    plan.analysis.perBranchTopN = 8;
    plan.analysis.warmup = true;
    plan.analysis.warmupIntervalLength = 2000;
    plan.analysis.warmupThresholdMkp = 100.0;

    const auto serial = runSweep(plan, SweepOptions{1, {}});
    const auto parallel = runSweep(plan, SweepOptions{4, {}});
    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), 6u);
    for (size_t i = 0; i < serial.size(); ++i) {
        expectIdentical(serial[i], parallel[i]);
        EXPECT_FALSE(serial[i].analysis.empty());
        expectAnalysisIdentical(serial[i].analysis,
                                parallel[i].analysis);
        // The taken split stays bounded by the cell's ClassStats even
        // when the cell ran on a worker thread.
        for (const auto c : kAllPredictionClasses)
            EXPECT_LE(serial[i].analysis.histogram
                          ->takenPredictions[classIndex(c)],
                      serial[i].stats.predictions(c));
    }
}

TEST(SweepRunner, ProgressCallbackSeesEveryCellExactlyOnce)
{
    SweepPlan plan = SweepPlan::over({"bimodal", "gshare"},
                                     {"FP-1", "FP-2"}, 2000);
    std::mutex seen_mutex;
    std::vector<std::string> seen;
    size_t max_completed = 0;
    SweepOptions opt;
    opt.jobs = 4;
    opt.onProgress = [&](const SweepProgress& p) {
        // The runner already serializes callbacks; the local mutex
        // just keeps the test helgrind-clean.
        std::lock_guard<std::mutex> lock(seen_mutex);
        seen.push_back(p.cell->spec + "/" + p.cell->trace);
        max_completed = std::max(max_completed, p.completed);
        EXPECT_EQ(p.total, 4u);
        EXPECT_NE(p.result, nullptr);
        EXPECT_GT(p.result->stats.totalPredictions(), 0u);
    };
    const auto results = runSweep(plan, opt);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(seen.size(), 4u);
    EXPECT_EQ(max_completed, 4u);
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<std::string>{
                        "bimodal/FP-1", "bimodal/FP-2",
                        "gshare/FP-1", "gshare/FP-2"}));
}

TEST(SweepRunner, SeedSaltChangesTheGeneratedStreams)
{
    const auto salted = runSweep(
        SweepPlan::over({"tage16k"}, {"INT-1"}, 20000, 12345));
    const auto unsalted =
        runSweep(SweepPlan::over({"tage16k"}, {"INT-1"}, 20000, 0));
    ASSERT_EQ(salted.size(), 1u);
    ASSERT_EQ(unsalted.size(), 1u);
    // Identical totals but different streams: the misprediction
    // pattern must move.
    EXPECT_EQ(salted[0].stats.totalPredictions(),
              unsalted[0].stats.totalPredictions());
    EXPECT_NE(salted[0].stats.totalMispredictions(),
              unsalted[0].stats.totalMispredictions());
}

TEST(SweepRunner, RowPoolingMatchesManualCellFold)
{
    const std::string spec = "tage16k+prob7+sfc";
    const uint64_t branches = 10000;
    const auto traces = allTraceNames();

    SweepPlan plan = SweepPlan::over({spec}, traces, branches);
    const auto rows = runSweepRows(plan, SweepOptions{4});
    ASSERT_EQ(rows.size(), 1u);

    // The serial reference: one cell at a time, folded in plan order.
    ClassStats stats;
    BinaryConfidenceMetrics confusion;
    double mpki_sum = 0.0;
    uint64_t storage_bits = 0;
    for (const auto& trace : traces) {
        const RunResult r =
            runSweepCell(SweepCell{spec, trace, branches, 0, {}});
        stats.merge(r.stats);
        confusion.merge(r.confusion);
        mpki_sum += r.stats.mpki();
        storage_bits = r.storageBits;
    }

    EXPECT_EQ(rows[0].spec, canonicalizeSpec(spec));
    expectStatsIdentical(rows[0].aggregate, stats);
    // The row's confusion, derived from its pooled stats, equals the
    // merge of its cells' confusions.
    const auto pooled =
        BinaryConfidenceMetrics::fromClassStats(rows[0].aggregate);
    EXPECT_EQ(pooled.highCorrect(), confusion.highCorrect());
    EXPECT_EQ(pooled.highWrong(), confusion.highWrong());
    EXPECT_EQ(pooled.lowCorrect(), confusion.lowCorrect());
    EXPECT_EQ(pooled.lowWrong(), confusion.lowWrong());
    EXPECT_DOUBLE_EQ(rows[0].meanMpki,
                     mpki_sum / static_cast<double>(traces.size()));
    EXPECT_EQ(rows[0].storageBits, storage_bits);
    EXPECT_EQ(rows[0].perTrace.size(), traces.size());
}

TEST(SweepRunner, JobsZeroMeansHardwareConcurrency)
{
    // Must run (and stay deterministic) whatever the host's core count.
    const auto rows = runSweepRows(
        SweepPlan::over({"bimodal+sfc"}, {"FP-1", "FP-2"}, 5000),
        SweepOptions{0});
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].perTrace.size(), 2u);
    EXPECT_EQ(rows[0].aggregate.totalPredictions(), 10000u);
}

/** Temp trace file shared by the file-trace sweep tests. */
class SweepFileTraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("tagecon_sweep_trace_" +
                  std::to_string(::testing::UnitTest::GetInstance()
                                     ->random_seed()) +
                  "_" + std::to_string(counter_++) + ".tcbt"))
                    .string();
        SyntheticTrace src = makeTrace("MM-3", kRecords);
        ASSERT_TRUE(writeTraceFile(path_, src).ok());
    }

    void TearDown() override { std::filesystem::remove(path_); }

    static constexpr uint64_t kRecords = 15000;
    std::string path_;
    static int counter_;
};

int SweepFileTraceTest::counter_ = 0;

// The PR's acceptance property: sweeping over file:PATH is
// bit-identical to running the same records through an in-memory
// VectorTrace, at any job count.
TEST_F(SweepFileTraceTest, FileCellsMatchInMemoryReplayAtAnyJobCount)
{
    const std::vector<std::string> specs = {"tage64k+sfc",
                                            "tage64k+jrs"};
    SweepPlan plan =
        SweepPlan::over(specs, {"file:" + path_}, kRecords);

    const auto serial = runSweep(plan, SweepOptions{1});
    const auto parallel = runSweep(plan, SweepOptions{4});
    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());

    for (size_t s = 0; s < specs.size(); ++s) {
        expectIdentical(serial[s], parallel[s]);

        auto reader = TraceReader::open(path_);
        ASSERT_TRUE(reader.ok()) << reader.error().message();
        VectorTrace in_memory = materialize(*reader.value(), kRecords);
        auto predictor = makePredictor(specs[s]);
        const RunResult direct = runTrace(in_memory, *predictor);
        expectIdentical(serial[s], direct);
    }
}

TEST_F(SweepFileTraceTest, MixedFileAndSyntheticGridsStayDeterministic)
{
    // File columns stream per-cell readers while synthetic columns
    // regenerate — neither may perturb the other across threads.
    SweepPlan plan = SweepPlan::over(
        {"tage16k+sfc", "gshare+jrs"}, {"file:" + path_, "MM-3"},
        kRecords);
    const auto serial = runSweep(plan, SweepOptions{1});
    const auto parallel = runSweep(plan, SweepOptions{4});
    ASSERT_EQ(serial.size(), 4u);
    for (size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i], parallel[i]);

    // The file was recorded from MM-3 with the same record count and
    // no salt, so file and synthetic columns agree cell for cell.
    EXPECT_EQ(serial[0].traceName, serial[1].traceName);
    expectIdentical(serial[0], serial[1]);
}

TEST(SweepPlanFileTraces, MalformedRecordMidFileFailsTheCell)
{
    // Record 1501 of 3000 does not parse. The reader latches the error
    // and ends the stream; the cell must fail naming the file and line
    // rather than report the 1500-record prefix as the whole trace.
    const auto path = std::filesystem::temp_directory_path() /
                      "tagecon_sweep_malformed.trace";
    {
        std::ofstream out(path);
        for (int i = 1; i <= 3000; ++i) {
            if (i == 1501)
                out << "0x4000 maybe 3\n";
            else
                out << "0x" << std::hex << (0x4000 + 4 * (i % 61))
                    << std::dec << (i % 3 == 0 ? " N" : " T") << " 3\n";
        }
    }
    SweepPlan plan = SweepPlan::over({"tage16k+sfc"},
                                     {"file:" + path.string()}, 3000);
    ASSERT_TRUE(plan.validate()); // the probe reads only the head
    EXPECT_EXIT(std::ignore = runSweep(plan),
                ::testing::ExitedWithCode(1),
                "tagecon_sweep_malformed\\.trace' line 1501");
    std::filesystem::remove(path);
}

TEST(SweepPlanFileTraces, ValidateRejectsMissingAndCorruptFiles)
{
    SweepPlan plan = SweepPlan::over(
        {"bimodal"}, {"file:/nonexistent/nope.tcbt"}, 1000);
    std::string error;
    EXPECT_FALSE(plan.validate(&error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);
}

/** The sweep.* counters of one runSweep() call with metrics on. */
struct SweepCounts {
    uint64_t cells = 0;
    uint64_t executed = 0;
    uint64_t hits = 0;
    uint64_t following = 0;
    uint64_t opened = 0;
    size_t progressCalls = 0;
    std::vector<RunResult> results;
};

SweepCounts
countedSweep(const SweepPlan& plan, unsigned jobs)
{
    obs::resetAllMetrics();
    obs::setMetricsEnabled(true);
    SweepCounts c;
    SweepOptions opt;
    opt.jobs = jobs;
    opt.onProgress = [&c](const SweepProgress&) { ++c.progressCalls; };
    c.results = runSweep(plan, opt);
    obs::setMetricsEnabled(false);
    c.cells = obs::counter("sweep.cells").value();
    c.executed = obs::counter("sweep.cells.executed").value();
    c.hits = obs::counter("sweep.cache.hits").value();
    c.following = obs::counter("sweep.cells.following").value();
    c.opened = obs::counter("trace.sources.opened").value();
    return c;
}

TEST(SweepCache, DuplicateCellsInsideOnePlanSimulateOnce)
{
    // The same spec twice: each trace's cell appears twice in the
    // grid, and the second occurrence must be a copy, not a re-run.
    SweepPlan plan = SweepPlan::over({"tage16k+sfc", "tage16k+sfc"},
                                     {"FP-1", "INT-1"}, 20000);
    const SweepCounts c = countedSweep(plan, 2);
    EXPECT_EQ(c.cells, 4u);
    EXPECT_EQ(c.executed, 2u);
    EXPECT_EQ(c.hits, 2u);
    EXPECT_EQ(c.progressCalls, 2u);
    ASSERT_EQ(c.results.size(), 4u);
    expectIdentical(c.results[0], c.results[2]);
    expectIdentical(c.results[1], c.results[3]);
}

TEST(SweepCache, KeyCoversEveryCellIngredient)
{
    const SweepCell base{"tage16k+sfc", "FP-1", 1000, 0, {}};
    SweepCell spec = base;
    spec.spec = "tage64k+sfc";
    SweepCell trace = base;
    trace.trace = "INT-1";
    SweepCell branches = base;
    branches.branches = 2000;
    SweepCell salt = base;
    salt.seedSalt = 1;
    SweepCell analysis = base;
    analysis.analysis.burst = true;

    const std::string k = sweepCellKey(base);
    EXPECT_NE(k, sweepCellKey(spec));
    EXPECT_NE(k, sweepCellKey(trace));
    EXPECT_NE(k, sweepCellKey(branches));
    EXPECT_NE(k, sweepCellKey(salt));
    EXPECT_NE(k, sweepCellKey(analysis));

    // Spec aliases canonicalize to the same key ("self" == "sfc").
    SweepCell alias = base;
    alias.spec = "tage16k+self";
    EXPECT_EQ(k, sweepCellKey(alias));

    // A differently parameterized observer changes the key too.
    SweepCell burst8 = analysis;
    burst8.analysis.burstMaxDistance = 8;
    EXPECT_NE(sweepCellKey(analysis), sweepCellKey(burst8));
}

TEST(SweepCache, DistinctCellsAllExecute)
{
    SweepPlan plan =
        SweepPlan::over({"bimodal"}, {"FP-1", "INT-1"}, 5000);
    const SweepCounts c = countedSweep(plan, 1);
    EXPECT_EQ(c.cells, 2u);
    EXPECT_EQ(c.executed, 2u);
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.progressCalls, 2u);
}

// A sweep runs column by column: the executed cells that share a
// trace key ride one trace source. Every result must equal the cell run
// alone, with several specs per trace, a repeated spec, every observer
// kind and a file-backed column, at job counts below, at and above the
// column count — and each distinct trace key opens exactly one source.
TEST_F(SweepFileTraceTest, ColumnsMatchRunSweepCellAtAnyJobCount)
{
    AnalysisConfig every;
    std::string error;
    ASSERT_TRUE(parseAnalysisSpecs(
        {"intervals:len=1000", "histogram", "burst:max=8",
         "perbranch:top=8", "warmup:len=500,mkp=40"},
        every, error))
        << error;

    SweepPlan observed = SweepPlan::over(
        {"tage16k+sfc", "tage64k+prob7+adaptive+sfc", "ltage16k+sfc",
         "gshare:hist=14+jrs", "tage16k+sfc"},
        {"file:" + path_, "SERV-1", "INT-3"}, 6000, 3);
    observed.analysis = every;
    const SweepPlan plain = SweepPlan::over(
        {"perceptron+sfc", "tage64k+jrs", "ogehl+sfc", "bimodal+sfc"},
        {"MM-3", "file:" + path_, "FP-1", "MM-3"}, 4000);

    for (const SweepPlan& plan : {observed, plain}) {
        const std::vector<SweepCell> cells = plan.cells();
        std::vector<RunResult> alone;
        std::set<std::string> cell_keys;
        std::set<std::string> trace_keys;
        for (const SweepCell& cell : cells) {
            alone.push_back(runSweepCell(cell));
            cell_keys.insert(sweepCellKey(cell));
            trace_keys.insert(cell.trace + "/" +
                              std::to_string(cell.branches) + "/" +
                              std::to_string(cell.seedSalt));
        }
        for (const unsigned jobs : {1u, 2u, 3u, 7u}) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs));
            const SweepCounts c = countedSweep(plan, jobs);
            EXPECT_EQ(c.cells, cells.size());
            EXPECT_EQ(c.executed, cell_keys.size());
            EXPECT_EQ(c.hits, cells.size() - cell_keys.size());
            EXPECT_EQ(c.progressCalls, cell_keys.size());
            EXPECT_EQ(c.opened, trace_keys.size());
            ASSERT_EQ(c.results.size(), cells.size());
            for (size_t i = 0; i < cells.size(); ++i) {
                SCOPED_TRACE(cells[i].spec + " x " + cells[i].trace);
                expectIdentical(c.results[i], alone[i]);
                expectStatsIdentical(c.results[i].stats, alone[i].stats);
                expectAnalysisIdentical(c.results[i].analysis,
                                        alone[i].analysis);
            }
        }
    }
}

// Lookup groups: a column's TAGE stacks of one lookup geometry share
// one index pass, the first stack leading and the others resolving
// from its rows. Stacks that differ in the automaton, the counter
// width, USE_ALT_ON_NA, the estimator and the loop part, and the
// adaptive stack as a follower (64K) and as a leader (16K), past its
// 65536-branch epoch, must each equal the cell run alone, with every
// observer, over a synthetic and a .tcbt trace at any job count; and
// the multi-predictor runTrace() must leave every predictor in a solo
// run's snapshot() bytes.
TEST(SweepLookupGroups, SharedIndexPassMatchesSoloRuns)
{
    constexpr uint64_t kBranches = 70000;
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("tagecon_sweep_groups_" +
          std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
          ".tcbt"))
            .string();
    {
        SyntheticTrace src = makeTrace("INT-3", kBranches);
        ASSERT_TRUE(writeTraceFile(path, src).ok());
    }
    AnalysisConfig every;
    std::string error;
    ASSERT_TRUE(parseAnalysisSpecs(
        {"intervals:len=5000", "histogram", "burst:max=8",
         "perbranch:top=8", "warmup:len=2000,mkp=40"},
        every, error))
        << error;

    // Two groups, with a stack of another family between their
    // members: 64K (six followers, the adaptive stack last) and 16K
    // (the adaptive stack leading two).
    SweepPlan plan = SweepPlan::over(
        {"tage64k+prob7+sfc", "tage16k+prob7+adaptive+sfc",
         "gshare:hist=14+jrs", "tage64k+prob3+sfc", "tage64k:ctr=4+sfc",
         "tage64k:ualt=0+prob3+sfc", "tage16k+prob3+sfc",
         "tage64k+prob7+jrs", "ltage64k+sfc", "ltage16k+sfc",
         "tage64k+prob7+adaptive+sfc"},
        {"SERV-1", "file:" + path}, kBranches, 5);
    plan.analysis = every;
    constexpr uint64_t kFollowingPerColumn = 8;

    const std::vector<SweepCell> cells = plan.cells();
    std::vector<RunResult> alone;
    for (const SweepCell& cell : cells)
        alone.push_back(runSweepCell(cell));
    // The adaptive stacks move p, so a follower trained with a stale
    // one would show.
    EXPECT_NE(alone[2 * 1].finalLog2Prob, 7u);
    EXPECT_NE(alone[2 * 10].finalLog2Prob, 7u);

    for (const unsigned jobs : {1u, 2u, 3u, 7u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        const SweepCounts c = countedSweep(plan, jobs);
        EXPECT_EQ(c.following, kFollowingPerColumn * plan.traces.size());
        ASSERT_EQ(c.results.size(), cells.size());
        for (size_t i = 0; i < cells.size(); ++i) {
            SCOPED_TRACE(cells[i].spec + " x " + cells[i].trace);
            expectIdentical(c.results[i], alone[i]);
            expectStatsIdentical(c.results[i].stats, alone[i].stats);
            expectAnalysisIdentical(c.results[i].analysis,
                                    alone[i].analysis);
        }
    }

    for (const std::string& trace : plan.traces) {
        SCOPED_TRACE(trace);
        std::vector<std::unique_ptr<GradedPredictor>> owned;
        std::vector<GradedPredictor*> column;
        for (const std::string& spec : plan.specs) {
            owned.push_back(makePredictor(spec));
            column.push_back(owned.back().get());
        }
        auto source = openTraceSource(trace, kBranches, plan.seedSalt);
        ASSERT_TRUE(source.ok());
        const std::vector<RunResult> grouped =
            runTrace(*source.value(), column, every);
        for (size_t k = 0; k < plan.specs.size(); ++k) {
            SCOPED_TRACE(plan.specs[k]);
            auto solo = makePredictor(plan.specs[k]);
            auto solo_source =
                openTraceSource(trace, kBranches, plan.seedSalt);
            ASSERT_TRUE(solo_source.ok());
            const RunResult want = runTrace(*solo_source.value(), *solo, every);
            expectIdentical(grouped[k], want);
            expectAnalysisIdentical(grouped[k].analysis, want.analysis);
            EXPECT_TRUE(snapshotBytes(*column[k]) == snapshotBytes(*solo));
        }
    }
    std::filesystem::remove(path);
}

} // namespace
} // namespace tagecon
