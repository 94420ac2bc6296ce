/**
 * @file
 * Tests for the run-analysis observer subsystem: interval boundary
 * handling, histogram/ClassStats consistency, per-branch top-N
 * tie-breaking determinism, warmup detection, the analysis spec
 * grammar, and every observer of a batched analysis run against a
 * scalar reference loop.
 */

#include <gtest/gtest.h>

#include <limits>

#include "analysis/analysis_config.hpp"
#include "analysis/observers.hpp"
#include "sim/experiment.hpp"
#include "sim/registry.hpp"
#include "trace/profiles.hpp"

namespace tagecon {
namespace {

/** Feed a synthetic ObservedPrediction directly to an observer. */
ObservedPrediction
observed(uint64_t pc, PredictionClass cls, bool mispredicted,
         uint64_t index = 0, bool taken = true)
{
    ObservedPrediction o;
    o.pc = pc;
    o.prediction.taken = taken;
    o.prediction.cls = cls;
    o.prediction.confidence = confidenceLevel(cls);
    o.taken = mispredicted ? !taken : taken;
    o.mispredicted = mispredicted;
    o.instructions = 1;
    o.index = index;
    return o;
}

TEST(IntervalObserver, SplitsStreamAtExactBoundaries)
{
    IntervalObserver obs(10);
    for (uint64_t i = 0; i < 30; ++i)
        obs.onPrediction(observed(0x100 + i % 4,
                                  PredictionClass::HighConfBim,
                                  i % 5 == 0, i));
    RunAnalysis bag;
    obs.finish(bag);
    ASSERT_TRUE(bag.intervals.has_value());
    const IntervalAnalysis& ia = *bag.intervals;
    EXPECT_EQ(ia.intervalLength, 10u);
    EXPECT_EQ(ia.completeIntervals, 3u);
    EXPECT_FALSE(ia.hasPartialTail());
    ASSERT_EQ(ia.intervals.size(), 3u);
    for (const ClassStats& s : ia.intervals)
        EXPECT_EQ(s.totalPredictions(), 10u);
    // 30 records, every 5th mispredicted: 6 in total, 2 per interval.
    for (const ClassStats& s : ia.intervals)
        EXPECT_EQ(s.totalMispredictions(), 2u);
}

TEST(IntervalObserver, AppendsPartialTailAfterCompleteIntervals)
{
    IntervalObserver obs(8);
    for (uint64_t i = 0; i < 21; ++i)
        obs.onPrediction(
            observed(0x40, PredictionClass::Stag, false, i));
    RunAnalysis bag;
    obs.finish(bag);
    const IntervalAnalysis& ia = *bag.intervals;
    EXPECT_EQ(ia.completeIntervals, 2u);
    ASSERT_EQ(ia.intervals.size(), 3u);
    EXPECT_TRUE(ia.hasPartialTail());
    EXPECT_EQ(ia.intervals.back().totalPredictions(), 5u);
}

TEST(IntervalObserver, LengthOneMakesEveryPredictionAnInterval)
{
    IntervalObserver obs(1);
    for (uint64_t i = 0; i < 4; ++i)
        obs.onPrediction(
            observed(0x40, PredictionClass::Wtag, i == 2, i));
    RunAnalysis bag;
    obs.finish(bag);
    ASSERT_EQ(bag.intervals->intervals.size(), 4u);
    EXPECT_EQ(bag.intervals->completeIntervals, 4u);
    EXPECT_EQ(bag.intervals->intervals[2].totalMispredictions(), 1u);
}

// The acceptance property of the histogram: totals must equal the
// run's ClassStats, class by class and level by level, on a real run.
TEST(ConfidenceHistogramObserver, TotalsMatchClassStatsOnRealRun)
{
    SyntheticTrace trace = makeTrace("SERV-1", 20000);
    auto predictor = makePredictor("tage16k+sfc");
    AnalysisConfig cfg;
    cfg.histogram = true;
    const RunResult rr = runTrace(trace, *predictor, cfg);

    ASSERT_TRUE(rr.analysis.histogram.has_value());
    const ConfidenceHistogram& h = *rr.analysis.histogram;
    EXPECT_EQ(h.totalPredictions(), rr.stats.totalPredictions());
    EXPECT_EQ(h.totalMispredictions(), rr.stats.totalMispredictions());
    for (const auto c : kAllPredictionClasses) {
        EXPECT_EQ(h.predictions[classIndex(c)], rr.stats.predictions(c));
        EXPECT_EQ(h.mispredictions[classIndex(c)],
                  rr.stats.mispredictions(c));
        // The taken split partitions each class's counts.
        EXPECT_LE(h.takenPredictions[classIndex(c)],
                  h.predictions[classIndex(c)]);
        EXPECT_LE(h.takenMispredictions[classIndex(c)],
                  h.mispredictions[classIndex(c)]);
    }
    for (const auto l : kAllConfidenceLevels) {
        EXPECT_EQ(h.levelPredictions[levelIndex(l)],
                  rr.stats.predictions(l));
        EXPECT_EQ(h.levelMispredictions[levelIndex(l)],
                  rr.stats.mispredictions(l));
    }
}

TEST(PerBranchObserver, TopTableOrderedAndBounded)
{
    PerBranchObserver obs(2);
    // pc 0xA: 4 predictions, 3 misses; 0xB: 2/2; 0xC: 10/1.
    for (int i = 0; i < 4; ++i)
        obs.onPrediction(
            observed(0xA, PredictionClass::Wtag, i < 3));
    for (int i = 0; i < 2; ++i)
        obs.onPrediction(observed(0xB, PredictionClass::Wtag, true));
    for (int i = 0; i < 10; ++i)
        obs.onPrediction(
            observed(0xC, PredictionClass::Wtag, i == 0));
    RunAnalysis bag;
    obs.finish(bag);
    ASSERT_TRUE(bag.perBranch.has_value());
    const PerBranchAnalysis& pa = *bag.perBranch;
    EXPECT_EQ(pa.distinctBranches, 3u);
    EXPECT_EQ(pa.requestedTopN, 2u);
    ASSERT_EQ(pa.top.size(), 2u);
    EXPECT_EQ(pa.top[0].pc, 0xAu); // 3 misses beats 2 and 1
    EXPECT_EQ(pa.top[1].pc, 0xBu);
    EXPECT_DOUBLE_EQ(pa.top[0].mprateMkp(), 750.0);
}

TEST(PerBranchObserver, TieBreaksDeterministically)
{
    // Same misprediction count everywhere: fewer predictions (higher
    // rate) wins; identical profiles fall back to ascending pc.
    PerBranchObserver obs(3);
    for (const uint64_t pc : {0x30, 0x10, 0x20}) {
        obs.onPrediction(observed(pc, PredictionClass::Wtag, true));
        obs.onPrediction(observed(pc, PredictionClass::Wtag, false));
    }
    obs.onPrediction(observed(0x40, PredictionClass::Wtag, true));
    RunAnalysis bag;
    obs.finish(bag);
    const auto& top = bag.perBranch->top;
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].pc, 0x40u); // 1 miss / 1 pred: highest rate
    EXPECT_EQ(top[1].pc, 0x10u); // then ascending pc among equals
    EXPECT_EQ(top[2].pc, 0x20u);
}

TEST(WarmupObserver, DetectsFirstIntervalBelowThreshold)
{
    // Interval length 10, threshold 150 MKP: intervals with 3, 2 and
    // 1 misses run at 300, 200 and 100 MKP — converges at interval 2.
    WarmupObserver obs(10, 150.0);
    uint64_t index = 0;
    for (const int misses : {3, 2, 1, 0}) {
        for (int i = 0; i < 10; ++i)
            obs.onPrediction(observed(0x100,
                                      PredictionClass::HighConfBim,
                                      i < misses, index++));
    }
    RunAnalysis bag;
    obs.finish(bag);
    ASSERT_TRUE(bag.warmup.has_value());
    const WarmupAnalysis& wa = *bag.warmup;
    EXPECT_TRUE(wa.converged);
    EXPECT_EQ(wa.warmupIntervals, 2u);
    EXPECT_EQ(wa.warmupBranches, 20u);
    EXPECT_DOUBLE_EQ(wa.firstIntervalMkp, 300.0);
    EXPECT_DOUBLE_EQ(wa.convergedIntervalMkp, 100.0);
}

TEST(WarmupObserver, ReportsNonConvergenceAndIgnoresPartialTail)
{
    WarmupObserver obs(10, 50.0);
    // One complete interval at 100 MKP, then a hot partial tail.
    for (uint64_t i = 0; i < 14; ++i)
        obs.onPrediction(observed(0x100,
                                  PredictionClass::HighConfBim,
                                  i % 10 == 0, i));
    RunAnalysis bag;
    obs.finish(bag);
    EXPECT_FALSE(bag.warmup->converged);
    EXPECT_EQ(bag.warmup->warmupIntervals, 0u);
    EXPECT_DOUBLE_EQ(bag.warmup->firstIntervalMkp, 100.0);
}

TEST(BurstObserver, BucketsBimDistanceSinceLastBimMiss)
{
    BurstObserver obs(4);
    const auto bim = PredictionClass::HighConfBim;

    // Pre-miss predictions land in the capped ">= max" bucket.
    obs.onPrediction(observed(0x100, bim, true));          // d=4, miss
    obs.onPrediction(observed(0x100, bim, false));         // d=0
    obs.onPrediction(observed(0x100, bim, false));         // d=1
    obs.onPrediction(observed(0x100, bim, true));          // d=2, miss
    // Tagged-provided predictions are invisible to the burst clock.
    obs.onPrediction(observed(0x100, PredictionClass::Stag, true));
    obs.onPrediction(observed(0x100, bim, false));         // d=0
    obs.onPrediction(observed(0x100, bim, false));         // d=1
    obs.onPrediction(observed(0x100, bim, false));         // d=2
    obs.onPrediction(observed(0x100, bim, false));         // d=3
    obs.onPrediction(observed(0x100, bim, false));         // d=4 (cap)

    RunAnalysis bag;
    obs.finish(bag);
    ASSERT_TRUE(bag.burst.has_value());
    const BurstAnalysis& ba = *bag.burst;
    EXPECT_EQ(ba.maxDistance, 4u);
    ASSERT_EQ(ba.predictions.size(), 5u);
    EXPECT_EQ(ba.predictions, (std::vector<uint64_t>{2, 2, 2, 1, 2}));
    EXPECT_EQ(ba.mispredictions,
              (std::vector<uint64_t>{0, 0, 1, 0, 1}));
    EXPECT_EQ(ba.totalPredictions(), 9u);
}

TEST(BurstObserver, MergePoolsElementWise)
{
    BurstObserver a(4), b(4);
    a.onPrediction(observed(0x100, PredictionClass::HighConfBim, true));
    b.onPrediction(observed(0x200, PredictionClass::LowConfBim, true));
    b.onPrediction(observed(0x200, PredictionClass::LowConfBim, false));

    RunAnalysis bag_a, bag_b;
    a.finish(bag_a);
    b.finish(bag_b);

    BurstAnalysis pooled; // merging into empty adopts the geometry
    pooled.merge(*bag_a.burst);
    pooled.merge(*bag_b.burst);
    EXPECT_EQ(pooled.maxDistance, 4u);
    EXPECT_EQ(pooled.totalPredictions(), 3u);
    EXPECT_EQ(pooled.predictions[4],
              bag_a.burst->predictions[4] + bag_b.burst->predictions[4]);
    EXPECT_EQ(pooled.predictions[0], bag_b.burst->predictions[0]);
}

TEST(BurstObserver, TotalsMatchBimClassStatsOnRealRun)
{
    SyntheticTrace trace = makeTrace("SERV-1", 20000);
    auto predictor = makePredictor("tage16k+sfc");
    AnalysisConfig cfg;
    cfg.burst = true;
    cfg.burstMaxDistance = 8;
    const RunResult rr = runTrace(trace, *predictor, cfg);

    ASSERT_TRUE(rr.analysis.burst.has_value());
    const BurstAnalysis& ba = *rr.analysis.burst;
    const uint64_t bim_preds =
        rr.stats.predictions(PredictionClass::HighConfBim) +
        rr.stats.predictions(PredictionClass::LowConfBim) +
        rr.stats.predictions(PredictionClass::MediumConfBim);
    const uint64_t bim_misses =
        rr.stats.mispredictions(PredictionClass::HighConfBim) +
        rr.stats.mispredictions(PredictionClass::LowConfBim) +
        rr.stats.mispredictions(PredictionClass::MediumConfBim);
    EXPECT_EQ(ba.totalPredictions(), bim_preds);
    uint64_t miss_sum = 0;
    for (const uint64_t m : ba.mispredictions)
        miss_sum += m;
    EXPECT_EQ(miss_sum, bim_misses);
}

TEST(AnalysisConfig, ParsesBurstSpec)
{
    AnalysisConfig cfg;
    std::string error;
    ASSERT_TRUE(parseAnalysisSpecs({"burst:max=4"}, cfg, error))
        << error;
    EXPECT_TRUE(cfg.burst);
    EXPECT_EQ(cfg.burstMaxDistance, 4u);
    EXPECT_EQ(buildObservers(cfg).size(), 1u);

    EXPECT_FALSE(parseAnalysisSpecs({"burst:max=0"}, cfg, error));
    EXPECT_FALSE(parseAnalysisSpecs({"burst:nope=1"}, cfg, error));
}

TEST(AnalysisConfig, ParsesSpecListWithParameters)
{
    AnalysisConfig cfg;
    std::string error;
    ASSERT_TRUE(parseAnalysisSpecs(
        {"Intervals:len=5000", "histogram", "perbranch:top=8",
         "warmup:len=2000,mkp=30"},
        cfg, error))
        << error;
    EXPECT_TRUE(cfg.intervals);
    EXPECT_EQ(cfg.intervalLength, 5000u);
    EXPECT_TRUE(cfg.histogram);
    EXPECT_TRUE(cfg.perBranch);
    EXPECT_EQ(cfg.perBranchTopN, 8u);
    EXPECT_TRUE(cfg.warmup);
    EXPECT_EQ(cfg.warmupIntervalLength, 2000u);
    EXPECT_DOUBLE_EQ(cfg.warmupThresholdMkp, 30.0);

    const ObserverList observers = buildObservers(cfg);
    EXPECT_EQ(observers.size(), 4u);
}

TEST(AnalysisConfig, RejectsUnknownObserversKeysAndBadValues)
{
    AnalysisConfig cfg;
    std::string error;
    EXPECT_FALSE(parseAnalysisSpecs({"nope"}, cfg, error));
    EXPECT_NE(error.find("unknown analysis observer"),
              std::string::npos);

    EXPECT_FALSE(parseAnalysisSpecs({"intervals:nope=3"}, cfg, error));
    EXPECT_NE(error.find("unknown parameter"), std::string::npos);

    EXPECT_FALSE(parseAnalysisSpecs({"intervals:len=0"}, cfg, error));
    EXPECT_FALSE(
        parseAnalysisSpecs({"perbranch:top=banana"}, cfg, error));
    EXPECT_FALSE(parseAnalysisSpecs({"warmup:mkp=0"}, cfg, error));
}

TEST(AnalysisConfig, RejectsARepeatedObserver)
{
    // The second intervals length must not silently replace the first.
    AnalysisConfig cfg;
    std::string error;
    EXPECT_FALSE(parseAnalysisSpecs(
        {"intervals:len=500", "intervals:len=1000"}, cfg, error));
    EXPECT_NE(error.find("more than one 'intervals' observer"),
              std::string::npos)
        << error;
    EXPECT_FALSE(
        parseAnalysisSpecs({"histogram", "HISTOGRAM"}, cfg, error));
    EXPECT_NE(error.find("more than one 'histogram' observer"),
              std::string::npos)
        << error;
}

TEST(RunTraceObservers, EmptyPipelineMatchesPlainLoopExactly)
{
    SyntheticTrace t1 = makeTrace("MM-2", 15000);
    auto p1 = makePredictor("tage16k+sfc");
    const RunResult plain = runTrace(t1, *p1);

    SyntheticTrace t2 = makeTrace("MM-2", 15000);
    auto p2 = makePredictor("tage16k+sfc");
    const RunResult empty_cfg = runTrace(t2, *p2, AnalysisConfig{});

    EXPECT_TRUE(empty_cfg.analysis.empty());
    EXPECT_EQ(plain.stats.totalPredictions(),
              empty_cfg.stats.totalPredictions());
    EXPECT_EQ(plain.stats.totalMispredictions(),
              empty_cfg.stats.totalMispredictions());
    EXPECT_EQ(plain.allocations, empty_cfg.allocations);
}

TEST(RunTraceObservers, AttachedObserversDoNotPerturbTheRun)
{
    SyntheticTrace t1 = makeTrace("SERV-3", 15000);
    auto p1 = makePredictor("tage64k+prob7+sfc");
    const RunResult plain = runTrace(t1, *p1);

    AnalysisConfig cfg;
    cfg.intervals = true;
    cfg.intervalLength = 3000;
    cfg.histogram = true;
    cfg.perBranch = true;
    cfg.warmup = true;
    cfg.warmupIntervalLength = 1000;
    SyntheticTrace t2 = makeTrace("SERV-3", 15000);
    auto p2 = makePredictor("tage64k+prob7+sfc");
    const RunResult with = runTrace(t2, *p2, cfg);

    EXPECT_EQ(plain.stats.totalPredictions(),
              with.stats.totalPredictions());
    EXPECT_EQ(plain.stats.totalMispredictions(),
              with.stats.totalMispredictions());
    EXPECT_EQ(plain.stats.instructions(), with.stats.instructions());
    EXPECT_EQ(plain.allocations, with.allocations);
    EXPECT_EQ(plain.finalLog2Prob, with.finalLog2Prob);

    // And all four slots were filled, consistently with the stats.
    ASSERT_TRUE(with.analysis.intervals.has_value());
    EXPECT_EQ(with.analysis.intervals->completeIntervals, 5u);
    ClassStats pooled;
    for (const auto& s : with.analysis.intervals->intervals)
        pooled.merge(s);
    EXPECT_EQ(pooled.totalPredictions(),
              with.stats.totalPredictions());
    EXPECT_EQ(pooled.totalMispredictions(),
              with.stats.totalMispredictions());
    ASSERT_TRUE(with.analysis.histogram.has_value());
    ASSERT_TRUE(with.analysis.perBranch.has_value());
    EXPECT_GT(with.analysis.perBranch->distinctBranches, 0u);
    ASSERT_TRUE(with.analysis.warmup.has_value());
}

/**
 * Observer that folds every field of every element, in order, into one
 * FNV-style digest, so a dropped, repeated, reordered or altered
 * element shows.
 */
class FingerprintObserver : public RunObserver
{
  public:
    std::string name() const override { return "fingerprint"; }

    void
    onPrediction(const ObservedPrediction& o) override
    {
        const uint64_t fields[] = {
            o.index,
            o.pc,
            o.instructions,
            uint64_t{o.taken},
            uint64_t{o.mispredicted},
            uint64_t{o.prediction.taken},
            static_cast<uint64_t>(o.prediction.cls),
            static_cast<uint64_t>(o.prediction.confidence)};
        for (const uint64_t f : fields)
            digest_ = (digest_ ^ f) * 0x100000001B3ULL;
    }

    void finish(RunAnalysis&) override {}

    uint64_t digest() const { return digest_; }

  private:
    uint64_t digest_ = 0xCBF29CE484222325ULL;
};

/** Every observer of the analysis table. */
AnalysisConfig
everyObserver()
{
    AnalysisConfig cfg;
    std::string error;
    EXPECT_TRUE(parseAnalysisSpecs(
        {"intervals:len=1000", "histogram", "burst:max=8",
         "perbranch:top=8", "warmup:len=500,mkp=40"},
        cfg, error))
        << error;
    return cfg;
}

/** A run's results and the digest of the stream its observers saw. */
struct ObservedRun {
    RunResult result;
    uint64_t fingerprint = 0;
};

/**
 * Run @p spec over @p trace with the pipeline of @p cfg plus a
 * FingerprintObserver: batched through driveBranches(), or through the
 * scalar reference loop (predict, record, observe, update, one branch
 * at a time).
 */
ObservedRun
analysisRun(const std::string& spec, TraceSource& trace,
            const AnalysisConfig& cfg, bool batched)
{
    ObservedRun run;
    RunResult& r = run.result;
    auto predictor = makePredictor(spec);
    ObserverList observers = buildObservers(cfg);
    auto owned = std::make_unique<FingerprintObserver>();
    const FingerprintObserver& fingerprint = *owned;
    observers.push_back(std::move(owned));
    if (batched) {
        DriveChunk chunk;
        const DriveSink sink{predictor.get(), &r.stats, &r.confusion,
                             observers};
        driveBranches(trace, {&sink, 1},
                      std::numeric_limits<uint64_t>::max(), chunk);
    } else {
        BranchRecord rec;
        for (uint64_t index = 0; trace.next(rec); ++index) {
            const Prediction p = predictor->predict(rec.pc);
            const bool mispredicted = p.taken != rec.taken;
            const uint64_t instructions =
                uint64_t{rec.instructionsBefore} + 1;
            r.stats.record(p.cls, mispredicted, instructions);
            r.confusion.record(p.confidence == ConfidenceLevel::High,
                               !mispredicted);
            const ObservedPrediction o{rec.pc,       p,    rec.taken,
                                       mispredicted, instructions, index};
            for (const auto& observer : observers)
                observer->onPrediction(o);
            predictor->update(rec.pc, p, rec.taken);
        }
    }
    for (const auto& observer : observers)
        observer->finish(r.analysis);
    r.finalLog2Prob = predictor->satLog2Prob();
    r.allocations = predictor->allocations();
    run.fingerprint = fingerprint.digest();
    return run;
}

void
expectStatsEqual(const ClassStats& a, const ClassStats& b)
{
    for (const auto c : kAllPredictionClasses) {
        EXPECT_EQ(a.predictions(c), b.predictions(c));
        EXPECT_EQ(a.mispredictions(c), b.mispredictions(c));
    }
    EXPECT_EQ(a.instructions(), b.instructions());
}

/** Every slot of two analysis bags, exactly. */
void
expectAnalysisEqual(const RunAnalysis& a, const RunAnalysis& b)
{
    ASSERT_TRUE(a.intervals && b.intervals);
    EXPECT_EQ(a.intervals->intervalLength, b.intervals->intervalLength);
    EXPECT_EQ(a.intervals->completeIntervals,
              b.intervals->completeIntervals);
    ASSERT_EQ(a.intervals->intervals.size(),
              b.intervals->intervals.size());
    for (size_t i = 0; i < a.intervals->intervals.size(); ++i)
        expectStatsEqual(a.intervals->intervals[i],
                         b.intervals->intervals[i]);

    ASSERT_TRUE(a.histogram && b.histogram);
    EXPECT_EQ(a.histogram->predictions, b.histogram->predictions);
    EXPECT_EQ(a.histogram->mispredictions, b.histogram->mispredictions);
    EXPECT_EQ(a.histogram->takenPredictions,
              b.histogram->takenPredictions);
    EXPECT_EQ(a.histogram->takenMispredictions,
              b.histogram->takenMispredictions);
    EXPECT_EQ(a.histogram->levelPredictions,
              b.histogram->levelPredictions);
    EXPECT_EQ(a.histogram->levelMispredictions,
              b.histogram->levelMispredictions);

    ASSERT_TRUE(a.burst && b.burst);
    EXPECT_EQ(a.burst->maxDistance, b.burst->maxDistance);
    EXPECT_EQ(a.burst->predictions, b.burst->predictions);
    EXPECT_EQ(a.burst->mispredictions, b.burst->mispredictions);

    ASSERT_TRUE(a.perBranch && b.perBranch);
    EXPECT_EQ(a.perBranch->distinctBranches,
              b.perBranch->distinctBranches);
    EXPECT_EQ(a.perBranch->requestedTopN, b.perBranch->requestedTopN);
    ASSERT_EQ(a.perBranch->top.size(), b.perBranch->top.size());
    for (size_t i = 0; i < a.perBranch->top.size(); ++i) {
        EXPECT_EQ(a.perBranch->top[i].pc, b.perBranch->top[i].pc);
        EXPECT_EQ(a.perBranch->top[i].predictions,
                  b.perBranch->top[i].predictions);
        EXPECT_EQ(a.perBranch->top[i].mispredictions,
                  b.perBranch->top[i].mispredictions);
    }

    ASSERT_TRUE(a.warmup && b.warmup);
    EXPECT_EQ(a.warmup->intervalLength, b.warmup->intervalLength);
    EXPECT_EQ(a.warmup->thresholdMkp, b.warmup->thresholdMkp);
    EXPECT_EQ(a.warmup->converged, b.warmup->converged);
    EXPECT_EQ(a.warmup->warmupIntervals, b.warmup->warmupIntervals);
    EXPECT_EQ(a.warmup->warmupBranches, b.warmup->warmupBranches);
    EXPECT_EQ(a.warmup->firstIntervalMkp, b.warmup->firstIntervalMkp);
    EXPECT_EQ(a.warmup->convergedIntervalMkp,
              b.warmup->convergedIntervalMkp);
}

// driveBranches() hands observers each element after its
// predictMany() chunk has trained; the scalar loop hands it over
// before the update. Observers see only the stream, so every slot and
// the fingerprint must agree — on the plain, adaptive and JRS stacks,
// and over a partial last chunk (5037 = 9 * 512 + 429).
TEST(RunTraceObservers, BatchedRunMatchesScalarReferenceLoop)
{
    const AnalysisConfig cfg = everyObserver();
    for (const std::string spec :
         {"tage64k+sfc", "tage64k+prob7+adaptive+sfc", "tage64k+jrs"}) {
        SCOPED_TRACE(spec);
        SyntheticTrace t1 = makeTrace("SERV-3", 5037);
        const ObservedRun scalar = analysisRun(spec, t1, cfg, false);
        const RunResult& want = scalar.result;

        SyntheticTrace t2 = makeTrace("SERV-3", 5037);
        const ObservedRun batched = analysisRun(spec, t2, cfg, true);
        const RunResult& got = batched.result;

        EXPECT_EQ(got.stats.totalPredictions(), 5037u);
        expectStatsEqual(got.stats, want.stats);
        EXPECT_EQ(got.confusion.highCorrect(), want.confusion.highCorrect());
        EXPECT_EQ(got.confusion.highWrong(), want.confusion.highWrong());
        EXPECT_EQ(got.confusion.lowCorrect(), want.confusion.lowCorrect());
        EXPECT_EQ(got.confusion.lowWrong(), want.confusion.lowWrong());
        EXPECT_EQ(got.finalLog2Prob, want.finalLog2Prob);
        EXPECT_EQ(got.allocations, want.allocations);
        expectAnalysisEqual(got.analysis, want.analysis);
        EXPECT_EQ(batched.fingerprint, scalar.fingerprint);
    }
}

} // namespace
} // namespace tagecon
