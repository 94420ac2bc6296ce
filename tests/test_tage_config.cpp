/**
 * @file
 * Tests for TAGE configuration: geometric history series, storage
 * accounting and validation.
 */

#include <gtest/gtest.h>

#include "tage/tage_config.hpp"
#include "tage/tage_predictor.hpp"

namespace tagecon {
namespace {

TEST(GeometricHistories, EndpointsAndMonotonicity)
{
    const auto l = TageConfig::geometricHistories(5, 130, 7);
    ASSERT_EQ(l.size(), 7u);
    EXPECT_EQ(l.front(), 5);
    EXPECT_EQ(l.back(), 130);
    for (size_t i = 1; i < l.size(); ++i)
        EXPECT_GT(l[i], l[i - 1]);
}

TEST(GeometricHistories, SingleTableUsesMax)
{
    const auto l = TageConfig::geometricHistories(3, 80, 1);
    ASSERT_EQ(l.size(), 1u);
    EXPECT_EQ(l[0], 80);
}

TEST(GeometricHistories, RatioIsApproximatelyGeometric)
{
    const auto l = TageConfig::geometricHistories(5, 300, 8);
    // Successive ratios should be near (300/5)^(1/7) ~ 1.79.
    for (size_t i = 2; i < l.size(); ++i) {
        const double ratio = static_cast<double>(l[i]) / l[i - 1];
        EXPECT_GT(ratio, 1.3) << i;
        EXPECT_LT(ratio, 2.4) << i;
    }
}

TEST(GeometricHistories, StrictlyIncreasingEvenWhenRoundingCollides)
{
    // min=1 with many tables forces rounding collisions; the series
    // must still strictly increase.
    const auto l = TageConfig::geometricHistories(1, 12, 10);
    for (size_t i = 1; i < l.size(); ++i)
        EXPECT_GT(l[i], l[i - 1]);
}

TEST(TageConfig, PaperTableOneGeometry)
{
    const TageConfig s = TageConfig::small16K();
    EXPECT_EQ(s.numTaggedTables(), 4);
    EXPECT_EQ(s.tagged.front().historyLength, 3);
    EXPECT_EQ(s.tagged.back().historyLength, 80);

    const TageConfig m = TageConfig::medium64K();
    EXPECT_EQ(m.numTaggedTables(), 7);
    EXPECT_EQ(m.tagged.front().historyLength, 5);
    EXPECT_EQ(m.tagged.back().historyLength, 130);

    const TageConfig l = TageConfig::large256K();
    EXPECT_EQ(l.numTaggedTables(), 8);
    EXPECT_EQ(l.tagged.front().historyLength, 5);
    EXPECT_EQ(l.tagged.back().historyLength, 300);
}

TEST(TageConfig, StorageBudgetsMatchPaperSizes)
{
    // Within 10% of the nominal budgets (the paper's configurations
    // are "realistically implementable", not exact bit counts).
    const double s =
        static_cast<double>(TageConfig::small16K().storageBits());
    const double m =
        static_cast<double>(TageConfig::medium64K().storageBits());
    const double l =
        static_cast<double>(TageConfig::large256K().storageBits());
    EXPECT_NEAR(s, 16.0 * 1024, 0.10 * 16 * 1024);
    EXPECT_NEAR(m, 64.0 * 1024, 0.10 * 64 * 1024);
    EXPECT_NEAR(l, 256.0 * 1024, 0.10 * 256 * 1024);
}

TEST(TageConfig, StorageBitsFormula)
{
    TageConfig cfg;
    cfg.logBimodalEntries = 10; // 1024 x 2b = 2048
    cfg.bimodalCtrBits = 2;
    cfg.taggedCtrBits = 3;
    cfg.usefulBits = 2;
    cfg.tagged = {{8, 8, 5}}; // 256 x (8+3+2) = 3328
    EXPECT_EQ(cfg.storageBits(), 2048u + 3328u);
}

TEST(TageConfig, MaxHistoryLength)
{
    EXPECT_EQ(TageConfig::large256K().maxHistoryLength(), 300);
    EXPECT_EQ(TageConfig::small16K().maxHistoryLength(), 80);
}

TEST(TageConfig, WithProbabilisticSaturation)
{
    const TageConfig base = TageConfig::medium64K();
    EXPECT_FALSE(base.probabilisticSaturation);
    const TageConfig mod = base.withProbabilisticSaturation(4);
    EXPECT_TRUE(mod.probabilisticSaturation);
    EXPECT_EQ(mod.satLog2Prob, 4u);
    // The original is unchanged.
    EXPECT_FALSE(base.probabilisticSaturation);
}

/** The detail of @p cfg's validation Err, or "" when it is valid. */
std::string
validationError(const TageConfig& cfg)
{
    const Err e = cfg.validate();
    if (e.failed())
        EXPECT_EQ(e.code, ErrCode::BadSpec) << e.message();
    return e.detail;
}

TEST(TageConfig, ValidationRejectsBadGeometry)
{
    TageConfig cfg = TageConfig::medium64K();
    cfg.tagged.clear();
    EXPECT_NE(validationError(cfg).find("at least one tagged table"),
              std::string::npos);

    TageConfig cfg2 = TageConfig::medium64K();
    cfg2.tagged[2].historyLength = cfg2.tagged[1].historyLength;
    EXPECT_NE(validationError(cfg2).find("strictly increase"),
              std::string::npos);

    TageConfig cfg3 = TageConfig::medium64K();
    cfg3.taggedCtrBits = 1;
    EXPECT_NE(validationError(cfg3).find("counter width"),
              std::string::npos);

    TageConfig cfg4 = TageConfig::medium64K();
    cfg4.taggedCtrBits = 5;
    cfg4.usefulBits = 4;
    EXPECT_EQ(validationError(cfg4),
              "ctr=5 and ubits=4 do not pack into one byte "
              "(ctr + ubits must be <= 8)");
}

TEST(TageConfig, InvalidConfigPanicsInThePredictor)
{
    TageConfig cfg = TageConfig::medium64K();
    cfg.taggedCtrBits = 1;
    EXPECT_DEATH(TagePredictor{cfg}, "counter width");
}

TEST(TageConfig, HistorySpanIsOneCheck)
{
    EXPECT_TRUE(TageConfig::checkHistorySpan(5, 16, 12).ok());
    const Err e = TageConfig::checkHistorySpan(5, 15, 12);
    EXPECT_EQ(e.code, ErrCode::BadSpec);
    EXPECT_EQ(e.detail,
              "maxhist 15 too short for 12 history lengths starting at "
              "minhist 5");
    // The series builder asserts the same precondition.
    EXPECT_EQ(TageConfig::geometricHistories(5, 16, 12).back(), 16);
    EXPECT_DEATH(TageConfig::geometricHistories(5, 15, 12), "too short");
}

TEST(TageConfig, PaperConfigsAreValid)
{
    for (const auto& cfg : TageConfig::paperConfigs())
        EXPECT_TRUE(cfg.validate().ok()) << cfg.validate().message();
}

} // namespace
} // namespace tagecon
