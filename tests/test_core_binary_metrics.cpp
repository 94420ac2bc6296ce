/**
 * @file
 * Tests for the Grunwald et al. binary confidence metrics.
 */

#include <gtest/gtest.h>

#include "core/binary_metrics.hpp"

namespace tagecon {
namespace {

TEST(BinaryMetrics, EmptyIsZero)
{
    BinaryConfidenceMetrics m;
    EXPECT_EQ(m.total(), 0u);
    EXPECT_EQ(m.sens(), 0.0);
    EXPECT_EQ(m.pvp(), 0.0);
    EXPECT_EQ(m.spec(), 0.0);
    EXPECT_EQ(m.pvn(), 0.0);
}

TEST(BinaryMetrics, DefinitionsOnCraftedConfusion)
{
    BinaryConfidenceMetrics m;
    // 60 high-correct, 10 high-wrong, 10 low-correct, 20 low-wrong.
    for (int i = 0; i < 60; ++i)
        m.record(true, true);
    for (int i = 0; i < 10; ++i)
        m.record(true, false);
    for (int i = 0; i < 10; ++i)
        m.record(false, true);
    for (int i = 0; i < 20; ++i)
        m.record(false, false);

    // SENS: correct predictions classified high = 60 / 70.
    EXPECT_NEAR(m.sens(), 60.0 / 70.0, 1e-12);
    // PVP: high-confidence predictions that are correct = 60 / 70.
    EXPECT_NEAR(m.pvp(), 60.0 / 70.0, 1e-12);
    // SPEC: incorrect predictions classified low = 20 / 30.
    EXPECT_NEAR(m.spec(), 20.0 / 30.0, 1e-12);
    // PVN: low-confidence predictions that are incorrect = 20 / 30.
    EXPECT_NEAR(m.pvn(), 20.0 / 30.0, 1e-12);
    EXPECT_NEAR(m.highCoverage(), 70.0 / 100.0, 1e-12);
    EXPECT_EQ(m.total(), 100u);
}

TEST(BinaryMetrics, PerfectEstimator)
{
    BinaryConfidenceMetrics m;
    for (int i = 0; i < 90; ++i)
        m.record(true, true);
    for (int i = 0; i < 10; ++i)
        m.record(false, false);
    EXPECT_EQ(m.sens(), 1.0);
    EXPECT_EQ(m.pvp(), 1.0);
    EXPECT_EQ(m.spec(), 1.0);
    EXPECT_EQ(m.pvn(), 1.0);
}

TEST(BinaryMetrics, MergeAccumulates)
{
    BinaryConfidenceMetrics a;
    BinaryConfidenceMetrics b;
    a.record(true, true);
    b.record(false, false);
    b.record(true, false);
    a.merge(b);
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(a.highCorrect(), 1u);
    EXPECT_EQ(a.highWrong(), 1u);
    EXPECT_EQ(a.lowWrong(), 1u);
}

// fromClassStats() splits the counts at ConfidenceLevel::High: both
// high classes count high, the medium and low classes count low.
TEST(BinaryMetrics, FromClassStatsSplitsAtTheHighLevel)
{
    ClassStats s;
    const struct {
        PredictionClass cls;
        int correct;
        int wrong;
    } counts[] = {
        {PredictionClass::HighConfBim, 50, 2},
        {PredictionClass::Stag, 10, 1},
        {PredictionClass::MediumConfBim, 7, 3},
        {PredictionClass::NStag, 4, 2},
        {PredictionClass::LowConfBim, 3, 5},
        {PredictionClass::NWtag, 2, 2},
        {PredictionClass::Wtag, 1, 4},
    };
    BinaryConfidenceMetrics oracle;
    for (const auto& c : counts) {
        const bool high = confidenceLevel(c.cls) == ConfidenceLevel::High;
        for (int i = 0; i < c.correct; ++i) {
            s.record(c.cls, false, 1);
            oracle.record(high, true);
        }
        for (int i = 0; i < c.wrong; ++i) {
            s.record(c.cls, true, 1);
            oracle.record(high, false);
        }
    }
    const auto m = BinaryConfidenceMetrics::fromClassStats(s);
    EXPECT_EQ(m.highCorrect(), 60u);
    EXPECT_EQ(m.highWrong(), 3u);
    EXPECT_EQ(m.lowCorrect(), 17u);
    EXPECT_EQ(m.lowWrong(), 16u);
    EXPECT_EQ(m.highCorrect(), oracle.highCorrect());
    EXPECT_EQ(m.highWrong(), oracle.highWrong());
    EXPECT_EQ(m.lowCorrect(), oracle.lowCorrect());
    EXPECT_EQ(m.lowWrong(), oracle.lowWrong());
    EXPECT_EQ(BinaryConfidenceMetrics::fromClassStats(ClassStats{}).total(),
              0u);
}

TEST(BinaryMetrics, AllHighDegenerate)
{
    BinaryConfidenceMetrics m;
    m.record(true, true);
    m.record(true, false);
    EXPECT_EQ(m.pvn(), 0.0);  // no low predictions
    EXPECT_EQ(m.spec(), 0.0); // no incorrect graded low
    EXPECT_EQ(m.highCoverage(), 1.0);
}

} // namespace
} // namespace tagecon
