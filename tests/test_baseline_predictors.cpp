/**
 * @file
 * Tests for the related-work baseline predictors and the JRS
 * storage-based confidence estimator.
 */

#include <gtest/gtest.h>

#include "baseline/bimodal_predictor.hpp"
#include "baseline/gshare_predictor.hpp"
#include "baseline/jrs_estimator.hpp"
#include "baseline/perceptron_predictor.hpp"
#include "util/random.hpp"

namespace tagecon {
namespace {

/** One predict/update step resolved as @p taken. */
void
train(GradedPredictor& p, uint64_t pc, bool taken)
{
    p.update(pc, p.predict(pc), taken);
}

/** A host prediction of direction @p taken, as JRS grades it. */
Prediction
predicted(bool taken)
{
    return binaryPrediction(taken, /*high=*/true);
}

/** True when JRS grades the prediction @p taken at @p pc high. */
bool
jrsHigh(JrsConfidenceEstimator& jrs, uint64_t pc, bool taken)
{
    return jrs.grade(pc, predicted(taken)) == ConfidenceLevel::High;
}

TEST(Bimodal, LearnsBias)
{
    BimodalPredictor p(10);
    for (int i = 0; i < 10; ++i)
        train(p, 0x40, true);
    EXPECT_TRUE(p.predict(0x40).taken);
    for (int i = 0; i < 10; ++i)
        train(p, 0x80, false);
    EXPECT_FALSE(p.predict(0x80).taken);
}

TEST(Bimodal, CannotLearnAlternation)
{
    BimodalPredictor p(10);
    int misses = 0;
    for (int i = 0; i < 1000; ++i) {
        const bool taken = i % 2 == 0;
        const Prediction pred = p.predict(0x40);
        if (pred.taken != taken && i > 100)
            ++misses;
        p.update(0x40, pred, taken);
    }
    // A 2-bit counter mispredicts alternation about half the time.
    EXPECT_GT(misses, 300);
}

TEST(Bimodal, SmithSelfConfidence)
{
    BimodalPredictor p(10);
    // Fresh counter is weak -> low confidence.
    EXPECT_FALSE(p.highConfidence(0x40));
    for (int i = 0; i < 4; ++i)
        train(p, 0x40, true);
    EXPECT_TRUE(p.highConfidence(0x40));
    EXPECT_TRUE(p.counterFor(0x40).saturated());
}

TEST(Bimodal, StorageBits)
{
    EXPECT_EQ(BimodalPredictor(10, 2).storageBits(), 2048u);
    EXPECT_EQ(BimodalPredictor(12, 3).storageBits(), 12288u);
}

TEST(Bimodal, AliasingSharesCounters)
{
    BimodalPredictor p(4); // 16 entries: 0x10 aliases with 0x00... etc.
    for (int i = 0; i < 8; ++i)
        train(p, 0x0, true);
    EXPECT_TRUE(p.predict(0x10).taken); // same entry
}

TEST(Gshare, LearnsAlternationThroughHistory)
{
    GsharePredictor p(12, 8);
    int late_misses = 0;
    for (int i = 0; i < 2000; ++i) {
        const bool taken = i % 2 == 0;
        const Prediction pred = p.predict(0x40);
        if (pred.taken != taken && i > 1000)
            ++late_misses;
        p.update(0x40, pred, taken);
    }
    EXPECT_EQ(late_misses, 0);
}

TEST(Gshare, HistoryChangesIndex)
{
    GsharePredictor p(12, 8);
    const uint32_t idx0 = p.indexFor(0x40);
    train(p, 0x40, true); // shifts a 1 into the history
    EXPECT_NE(p.indexFor(0x40), idx0);
}

TEST(Gshare, StorageBits)
{
    EXPECT_EQ(GsharePredictor(12, 12).storageBits(), 8192u);
}

TEST(Jrs, HighConfidenceRequiresThresholdStreak)
{
    JrsConfidenceEstimator::Config cfg;
    cfg.logEntries = 10;
    cfg.ctrBits = 4;
    cfg.threshold = 15;
    cfg.historyBits = 4;
    JrsConfidenceEstimator jrs(cfg);

    // Repeat the same (pc, history) by always resolving taken.
    // 14 correct predictions: still low confidence.
    // Keep history constant by using taken=true each time... history
    // changes; instead drive with history ignored: use historyBits=4
    // and constant outcome so history saturates at 0b1111 quickly.
    for (int i = 0; i < 4; ++i)
        jrs.onResolve(0x40, predicted(true), true); // warm history to 1111
    for (int i = 0; i < 14; ++i) {
        jrs.onResolve(0x40, predicted(true), true);
    }
    EXPECT_FALSE(jrsHigh(jrs, 0x40, true));
    jrs.onResolve(0x40, predicted(true), true); // 15th consecutive correct
    EXPECT_TRUE(jrsHigh(jrs, 0x40, true));
}

TEST(Jrs, MispredictionResetsCounter)
{
    JrsConfidenceEstimator::Config cfg;
    cfg.logEntries = 10;
    cfg.historyBits = 2;
    JrsConfidenceEstimator jrs(cfg);
    for (int i = 0; i < 30; ++i)
        jrs.onResolve(0x40, predicted(true), true);
    EXPECT_TRUE(jrsHigh(jrs, 0x40, true));
    jrs.onResolve(0x40, predicted(false), true); // mispredicted
    EXPECT_FALSE(jrsHigh(jrs, 0x40, true));
    EXPECT_EQ(jrs.counterValue(0x40, true), 0u);
}

TEST(Jrs, PredictionIndexedVariantSeparatesDirections)
{
    JrsConfidenceEstimator::Config cfg;
    cfg.logEntries = 12;
    cfg.historyBits = 2;
    cfg.indexWithPrediction = true;
    JrsConfidenceEstimator jrs(cfg);
    // Build confidence for predicted-taken only.
    for (int i = 0; i < 40; ++i)
        jrs.onResolve(0x40, predicted(true), true);
    EXPECT_TRUE(jrsHigh(jrs, 0x40, true));
    EXPECT_FALSE(jrsHigh(jrs, 0x40, false));
}

TEST(Jrs, DefaultConfigIsClassic)
{
    JrsConfidenceEstimator jrs;
    EXPECT_EQ(jrs.config().ctrBits, 4);
    EXPECT_EQ(jrs.config().threshold, 15u);
}

TEST(Jrs, StorageBits)
{
    JrsConfidenceEstimator::Config cfg;
    cfg.logEntries = 12;
    cfg.ctrBits = 4;
    EXPECT_EQ(JrsConfidenceEstimator(cfg).storageBits(), 16384u);
}

TEST(Jrs, RejectsBadConfig)
{
    JrsConfidenceEstimator::Config bad;
    bad.threshold = 99; // exceeds 4-bit range
    EXPECT_DEATH(JrsConfidenceEstimator{bad}, "threshold");
}

TEST(Perceptron, LearnsBias)
{
    PerceptronPredictor p(8, 16);
    for (int i = 0; i < 200; ++i)
        train(p, 0x40, true);
    EXPECT_TRUE(p.predict(0x40).taken);
}

TEST(Perceptron, LearnsHistoryCorrelation)
{
    // Outcome equals the outcome two branches ago: linearly separable
    // in the history bits, so a perceptron must learn it.
    PerceptronPredictor p(8, 16);
    bool h1 = false;
    bool h2 = false;
    int late_misses = 0;
    XorShift128Plus rng(3);
    for (int i = 0; i < 4000; ++i) {
        const bool taken = h2;
        const Prediction pred = p.predict(0x40);
        if (pred.taken != taken && i > 2000)
            ++late_misses;
        p.update(0x40, pred, taken);
        h2 = h1;
        h1 = taken;
    }
    EXPECT_LT(late_misses, 50);
}

TEST(Perceptron, SelfConfidenceGrowsWithTraining)
{
    PerceptronPredictor p(8, 12);
    p.predict(0x40);
    EXPECT_FALSE(p.lastHighConfidence()); // untrained: |sum| = 0
    for (int i = 0; i < 500; ++i)
        train(p, 0x40, true);
    p.predict(0x40);
    EXPECT_TRUE(p.lastHighConfidence());
}

TEST(Perceptron, ThetaFormula)
{
    PerceptronPredictor p(8, 20);
    EXPECT_EQ(p.theta(), static_cast<int>(1.93 * 20 + 14));
}

TEST(Perceptron, StorageBits)
{
    // 2^8 perceptrons x (16+1) weights x 8 bits.
    EXPECT_EQ(PerceptronPredictor(8, 16).storageBits(), 256u * 17 * 8);
}

} // namespace
} // namespace tagecon
