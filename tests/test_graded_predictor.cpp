/**
 * @file
 * Tests for the GradedPredictor API: adapter equivalence with the
 * hand-wired seed pipeline, estimator decoration, and the contract
 * checks (payload routing, reset determinism).
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "baseline/bimodal_predictor.hpp"
#include "baseline/gshare_predictor.hpp"
#include "baseline/jrs_estimator.hpp"
#include "baseline/ogehl_predictor.hpp"
#include "baseline/perceptron_predictor.hpp"
#include "core/confidence_observer.hpp"
#include "core/estimators.hpp"
#include "sim/experiment.hpp"
#include "sim/registry.hpp"
#include "sim/sweep.hpp"
#include "tage/graded_tage.hpp"
#include "tage/tage_predictor.hpp"
#include "test_support.hpp"

namespace tagecon {
namespace {

TEST(GradedTage, MatchesHandWiredPipeline)
{
    const TageConfig cfg =
        TageConfig::small16K().withProbabilisticSaturation(7);

    // Hand-wired: the way every seed bench drove the paper's pipeline.
    TagePredictor predictor(cfg);
    ConfidenceObserver observer;
    ClassStats manual;
    SyntheticTrace t1 = makeTrace("MM-2", 20000);
    BranchRecord rec;
    while (t1.next(rec)) {
        const TagePrediction p = predictor.predict(rec.pc);
        const PredictionClass cls = observer.classify(p);
        manual.record(cls, p.taken != rec.taken,
                      uint64_t{rec.instructionsBefore} + 1);
        observer.onResolve(p, rec.taken);
        predictor.update(rec.pc, p, rec.taken);
    }

    // The adapter behind the unified API.
    GradedTage graded(cfg);
    SyntheticTrace t2 = makeTrace("MM-2", 20000);
    const RunResult r = runTrace(t2, graded);

    EXPECT_EQ(r.stats.totalPredictions(), manual.totalPredictions());
    EXPECT_EQ(r.stats.totalMispredictions(),
              manual.totalMispredictions());
    for (const auto c : kAllPredictionClasses) {
        EXPECT_EQ(r.stats.predictions(c), manual.predictions(c));
        EXPECT_EQ(r.stats.mispredictions(c), manual.mispredictions(c));
    }
}

TEST(GradedTage, HandBuiltAndSpecRunsAgree)
{
    GradedTage hand(TageConfig::small16K());
    SyntheticTrace t1 = makeTrace("SERV-2", 15000);
    const RunResult built = runTrace(t1, hand);

    auto registry = makePredictor("tage16k+sfc");
    SyntheticTrace t2 = makeTrace("SERV-2", 15000);
    const RunResult spec = runTrace(t2, *registry);

    EXPECT_EQ(built.stats.totalMispredictions(),
              spec.stats.totalMispredictions());
    for (const auto c : kAllPredictionClasses)
        EXPECT_EQ(built.stats.predictions(c), spec.stats.predictions(c));
}

TEST(GradedTage, StalePredictionPanics)
{
    GradedTage graded(TageConfig::small16K());
    const Prediction p1 = graded.predict(100);
    graded.update(100, p1, true);
    const Prediction p2 = graded.predict(100);
    (void)p2;
    EXPECT_DEATH(graded.update(100, p1, true), "immediately preceding");
}

TEST(GradedTage, ResetRestoresDeterminism)
{
    GradedTage graded(TageConfig::small16K());
    SyntheticTrace t1 = makeTrace("INT-3", 10000);
    const RunResult a = runTrace(t1, graded);
    graded.reset();
    SyntheticTrace t2 = makeTrace("INT-3", 10000);
    const RunResult b = runTrace(t2, graded);
    EXPECT_EQ(a.stats.totalMispredictions(),
              b.stats.totalMispredictions());
    EXPECT_EQ(a.confusion.highCorrect(), b.confusion.highCorrect());
}

/**
 * Every family, TAGE and L-TAGE with their parts, and JRS on a host:
 * after a run and a reset(), replaying the trace must reproduce a
 * fresh instance prediction for prediction, down to the snapshot
 * bytes, and the registry-stamped name must survive. The serving
 * engine reset()s a shard's spare for each first admission, and that
 * spare last held another stream's restored state.
 */
class ResetReplay : public ::testing::TestWithParam<const char*>
{
  protected:
    /**
     * Equal state now, then every prediction of an INT-2 replay and
     * the final state: a register that only early predictions read
     * shows in the first check.
     */
    static void
    expectReplaysLikeAFreshInstance(GradedPredictor& used,
                                    GradedPredictor& fresh)
    {
        EXPECT_EQ(snapshotBytes(used), snapshotBytes(fresh));
        const Stream s = traceStream("INT-2", 3000);
        EXPECT_EQ(firstMismatch(predictAll(used, s, scalarLoop(s.size())),
                                predictAll(fresh, s, scalarLoop(s.size()))),
                  -1);
        EXPECT_EQ(snapshotBytes(used), snapshotBytes(fresh));
    }
};

TEST_P(ResetReplay, MatchesAFreshInstanceAndKeepsTheSpecName)
{
    const std::string spec = GetParam();
    auto used = makePredictor(spec);
    auto fresh = makePredictor(spec);
    SyntheticTrace warm = makeTrace("SERV-1", 3000);
    std::ignore = runTrace(warm, *used);
    used->reset();
    EXPECT_EQ(used->name(), spec);
    expectReplaysLikeAFreshInstance(*used, *fresh);
}

TEST_P(ResetReplay, AfterRestoringAnotherStreamsStateMatchesAFreshInstance)
{
    const std::string spec = GetParam();
    auto other = makePredictor(spec);
    SyntheticTrace other_trace = makeTrace("FP-1", 3000);
    std::ignore = runTrace(other_trace, *other);

    auto used = makePredictor(spec);
    auto fresh = makePredictor(spec);
    SyntheticTrace warm = makeTrace("SERV-1", 3000);
    std::ignore = runTrace(warm, *used);
    restoreFrom(*used, *other);
    used->reset();
    expectReplaysLikeAFreshInstance(*used, *fresh);
}

INSTANTIATE_TEST_SUITE_P(FoldedFamilies, ResetReplay,
                         ::testing::Values("bimodal", "gshare",
                                           "perceptron", "ogehl",
                                           "gshare+jrs", "bimodal+jrsg",
                                           "tage16k+sfc",
                                           "tage64k+prob7+adaptive+sfc",
                                           "ltage16k+sfc",
                                           "tage64k+jrs"));

TEST(GradedLTage, RunsAndGradesLoopBranches)
{
    GradedTageOptions opt;
    opt.loop = true;
    GradedTage graded(TageConfig::small16K(), opt);
    SyntheticTrace t = makeTrace("FP-2", 20000);
    const RunResult r = runTrace(t, graded);
    EXPECT_EQ(r.stats.totalPredictions(), 20000u);
    EXPECT_GT(graded.storageBits(),
              TageConfig::small16K().storageBits());
}

TEST(EstimatedPredictor, JrsOverridesIntrinsicGrade)
{
    auto host = std::make_unique<GradedTage>(TageConfig::small16K());
    EstimatedPredictor est(std::move(host),
                           std::make_unique<JrsConfidenceEstimator>());

    // Freshly-reset JRS counters are all zero, far below the
    // threshold, so the first grade must be Low regardless of what
    // TAGE's intrinsic grade says.
    const Prediction p = est.predict(0x1234);
    EXPECT_EQ(p.confidence, ConfidenceLevel::Low);
    EXPECT_EQ(p.cls, representativeClass(ConfidenceLevel::Low));
    est.update(0x1234, p, p.taken);
}

// Every producer grades confidence == confidenceLevel(cls), which is
// what lets a run's ClassStats carry its level split and binary
// confusion. Checked for every registry base bare and under every
// estimator it accepts (the registry rejects the rest, e.g.
// gshare+sfc), and for the adaptive stacks, on the scalar loop
// (batch 0) and through predictMany() at several batch sizes.
TEST(EstimatedPredictor, ClassStaysConsistentWithLevel)
{
    const Stream s = traceStream("164.gzip", 5000);
    const size_t n = s.size();

    std::vector<std::string> specs = {"tage64k+prob7+adaptive+sfc",
                                      "tage16k+prob7+adaptive+jrs",
                                      "tage256k+prob7+adaptive+blind"};
    for (const std::string& base : registeredBases()) {
        for (const char* estimator : {"", "+sfc", "+jrs", "+jrsg", "+blind"})
            if (tryMakePredictor(base + estimator))
                specs.push_back(base + estimator);
    }
    // 10 bases x 5 estimator choices, less gshare+sfc.
    EXPECT_EQ(specs.size(), 3u + 49u);

    for (const std::string& spec : specs) {
        for (const size_t batch : {size_t{0}, size_t{1}, size_t{64},
                                   size_t{333}}) {
            SCOPED_TRACE(spec + " batch=" + std::to_string(batch));
            auto predictor = makePredictor(spec);
            const std::vector<Prediction> out = predictAll(
                *predictor, s,
                batch == 0 ? scalarLoop(n) : batches(n, batch));
            size_t inconsistent = n;
            for (size_t i = 0; i < n && inconsistent == n; ++i) {
                if (confidenceLevel(out[i].cls) != out[i].confidence)
                    inconsistent = i;
            }
            EXPECT_EQ(inconsistent, n) << "first inconsistent prediction";
        }
    }
}

// EstimatedPredictor::predictMany runs the host's batch, then grades
// and trains the estimator element by element, and L-TAGE's loop part
// steps in a pass of its own. Every Prediction field must equal the
// scalar loop's at every batch size; 70000 branches also cross the
// adaptive controller's first epoch (65536).
TEST(EstimatedPredictor, PredictManyMatchesTheScalarLoop)
{
    constexpr size_t kBatchSizes[] = {1, 7, 64, 333, 512};
    const Stream s = traceStream("INT-2", 70000);
    const size_t n = s.size();
    for (const char* spec :
         {"tage64k+jrs", "tage64k+jrsg", "tage64k+blind",
          "tage64k+prob7+adaptive+jrs", "gshare+jrsg", "ltage16k+sfc",
          "ltage64k+prob7+sfc", "ltage64k+jrs"}) {
        auto scalar = makePredictor(spec);
        const auto want = predictAll(*scalar, s, scalarLoop(n));
        for (const size_t batch : kBatchSizes) {
            SCOPED_TRACE(std::string(spec) +
                         " batch=" + std::to_string(batch));
            auto batched = makePredictor(spec);
            EXPECT_EQ(firstMismatch(want,
                                    predictAll(*batched, s, batches(n, batch))),
                      -1)
                << "first diverging prediction";
            EXPECT_EQ(batched->satLog2Prob(), scalar->satLog2Prob());
        }
    }
    // Batched exactly when the host is: every L-TAGE stack batches,
    // the adaptive host still reports scalar.
    EXPECT_TRUE(makePredictor("tage64k+jrs")->hasBatchedPredict());
    EXPECT_TRUE(makePredictor("tage64k+sfc")->hasBatchedPredict());
    for (const char* spec :
         {"ltage16k+sfc", "ltage64k+prob7+sfc", "ltage256k+jrs",
          "ltage64k+blind"})
        EXPECT_TRUE(makePredictor(spec)->hasBatchedPredict()) << spec;
    EXPECT_FALSE(
        makePredictor("tage64k+prob7+adaptive+jrs")->hasBatchedPredict());
    EXPECT_FALSE(
        makePredictor("tage64k+prob7+adaptive+sfc")->hasBatchedPredict());
}

TEST(BimodalGrade, GradesWithSmithSelfConfidence)
{
    BimodalPredictor bimodal(10);
    // A fresh 2-bit counter starts weak: low confidence.
    Prediction p = bimodal.predict(64);
    EXPECT_EQ(p.confidence, ConfidenceLevel::Low);
    bimodal.update(64, p, true);
    // Train the counter strong; confidence must rise.
    for (int i = 0; i < 4; ++i) {
        p = bimodal.predict(64);
        bimodal.update(64, p, true);
    }
    p = bimodal.predict(64);
    EXPECT_EQ(p.confidence, ConfidenceLevel::High);
    EXPECT_TRUE(p.taken);
    bimodal.update(64, p, true);
}

TEST(GshareGrade, IsConfidenceBlind)
{
    GsharePredictor gshare(10, 10);
    EXPECT_FALSE(gshare.hasIntrinsicConfidence());
    const Prediction p = gshare.predict(4);
    EXPECT_EQ(p.confidence, ConfidenceLevel::High);
}

TEST(PerceptronGrade, SelfConfidenceTracksTheta)
{
    PerceptronPredictor perceptron(6, 12);
    // An untrained perceptron's |sum| is 0 < theta: low confidence.
    const Prediction p = perceptron.predict(8);
    EXPECT_EQ(p.confidence, ConfidenceLevel::Low);
    EXPECT_TRUE(perceptron.hasIntrinsicConfidence());
}

TEST(GenericRunTrace, FillsConfusionAndIdentity)
{
    OgehlPredictor ogehl;
    SyntheticTrace t = makeTrace("181.mcf", 8000);
    const RunResult r = runTrace(t, ogehl);
    EXPECT_EQ(r.configName, "ogehl");
    EXPECT_EQ(r.traceName, "181.mcf");
    EXPECT_EQ(r.confusion.total(), 8000u);
    EXPECT_EQ(r.confusion.highCorrect() + r.confusion.lowCorrect(),
              r.stats.totalPredictions() -
                  r.stats.totalMispredictions());
    EXPECT_EQ(r.storageBits, ogehl.storageBits());
}

TEST(GenericRunTrace, SpecSweepRowMatchesHandBuiltRuns)
{
    const auto& names = traceNames(BenchmarkSet::Cbp1);
    ClassStats hand_pooled;
    double mpki_sum = 0.0;
    for (const auto& name : names) {
        GradedTage hand(TageConfig::small16K());
        SyntheticTrace trace = makeTrace(name, 2000);
        const RunResult r = runTrace(trace, hand);
        hand_pooled.merge(r.stats);
        mpki_sum += r.stats.mpki();
    }

    const auto rows = runSweepRows(
        SweepPlan::over({"tage16k+sfc"}, names, 2000));
    ASSERT_EQ(rows.size(), 1u);
    const SweepRow& spec = rows[0];
    ASSERT_EQ(spec.perTrace.size(), names.size());
    EXPECT_EQ(hand_pooled.totalMispredictions(),
              spec.aggregate.totalMispredictions());
    EXPECT_NEAR(mpki_sum / static_cast<double>(names.size()),
                spec.meanMpki, 1e-12);
    EXPECT_EQ(BinaryConfidenceMetrics::fromClassStats(spec.aggregate)
                  .total(),
              spec.aggregate.totalPredictions());
}

} // namespace
} // namespace tagecon
