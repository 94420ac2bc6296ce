/**
 * @file
 * Tests for the Sec. 6.2 adaptive saturation-probability controller.
 */

#include <gtest/gtest.h>

#include "core/adaptive_probability.hpp"
#include "tage/graded_tage.hpp"
#include "util/state_io.hpp"

namespace tagecon {
namespace {

AdaptiveProbabilityController::Config
smallEpochConfig()
{
    AdaptiveProbabilityController::Config cfg;
    cfg.epochLength = 1000;
    cfg.initialLog2 = 7;
    cfg.minLog2 = 0;
    cfg.maxLog2 = 10;
    cfg.targetMkp = 10.0;
    return cfg;
}

/** Feed one epoch with the given high-class misprediction rate. */
void
feedEpoch(AdaptiveProbabilityController& c, double high_mkp,
          double high_share = 1.0)
{
    const auto n = c.config().epochLength;
    uint64_t high = 0;
    uint64_t high_miss = 0;
    for (uint64_t i = 0; i < n; ++i) {
        const bool is_high =
            static_cast<double>(i % 100) < high_share * 100.0;
        if (is_high) {
            ++high;
            const bool miss =
                static_cast<double>(high_miss) * 1000.0 <
                high_mkp * static_cast<double>(high);
            if (miss)
                ++high_miss;
            c.record(ConfidenceLevel::High, miss);
        } else {
            c.record(ConfidenceLevel::Low, true);
        }
    }
}

TEST(AdaptiveController, StartsAtInitialProbability)
{
    AdaptiveProbabilityController c(smallEpochConfig());
    EXPECT_EQ(c.log2Prob(), 7u);
    EXPECT_EQ(c.epochs(), 0u);
}

TEST(AdaptiveController, RaisesSelectivityWhenOverTarget)
{
    AdaptiveProbabilityController c(smallEpochConfig());
    feedEpoch(c, /*high_mkp=*/50.0);
    EXPECT_EQ(c.epochs(), 1u);
    EXPECT_EQ(c.log2Prob(), 8u); // p halved
}

TEST(AdaptiveController, RelaxesWhenComfortablyUnderTarget)
{
    AdaptiveProbabilityController c(smallEpochConfig());
    feedEpoch(c, /*high_mkp=*/1.0); // far under 10 MKP * 0.5
    EXPECT_EQ(c.log2Prob(), 6u); // p doubled
}

TEST(AdaptiveController, HoldsInsideHysteresisBand)
{
    AdaptiveProbabilityController c(smallEpochConfig());
    feedEpoch(c, /*high_mkp=*/7.0); // between target/2 and target
    EXPECT_EQ(c.log2Prob(), 7u);
}

TEST(AdaptiveController, ClampsAtMax)
{
    AdaptiveProbabilityController c(smallEpochConfig());
    for (int i = 0; i < 20; ++i)
        feedEpoch(c, 300.0);
    EXPECT_EQ(c.log2Prob(), 10u);
}

TEST(AdaptiveController, ClampsAtMin)
{
    AdaptiveProbabilityController c(smallEpochConfig());
    for (int i = 0; i < 20; ++i)
        feedEpoch(c, 0.0);
    EXPECT_EQ(c.log2Prob(), 0u);
}

TEST(AdaptiveController, RecordSignalsEpochBoundary)
{
    AdaptiveProbabilityController c(smallEpochConfig());
    for (uint64_t i = 0; i < c.config().epochLength - 1; ++i)
        EXPECT_FALSE(c.record(ConfidenceLevel::High, false));
    EXPECT_TRUE(c.record(ConfidenceLevel::High, false));
    EXPECT_EQ(c.epochs(), 1u);
}

TEST(AdaptiveController, EmptyHighClassHoldsProbability)
{
    AdaptiveProbabilityController c(smallEpochConfig());
    for (uint64_t i = 0; i < c.config().epochLength; ++i)
        c.record(ConfidenceLevel::Low, true);
    EXPECT_EQ(c.epochs(), 1u);
    EXPECT_EQ(c.log2Prob(), 7u);
}

TEST(AdaptiveController, ConvergesFromBothSides)
{
    // Start very permissive, feed rates that depend on p: model a
    // world where rate = 40 MKP at p=1 and halves per log2 step.
    AdaptiveProbabilityController::Config cfg = smallEpochConfig();
    cfg.initialLog2 = 0;
    AdaptiveProbabilityController c(cfg);
    for (int i = 0; i < 30; ++i) {
        const double rate = 40.0 / (1 << std::min(c.log2Prob(), 5u));
        feedEpoch(c, rate);
    }
    // Equilibrium: rate(log2=2) = 10 (not over), rate(1) = 20 (over).
    EXPECT_GE(c.log2Prob(), 2u);
    EXPECT_LE(c.log2Prob(), 3u);
}

TEST(AdaptiveController, ResetRestoresInitialState)
{
    AdaptiveProbabilityController c(smallEpochConfig());
    feedEpoch(c, 100.0);
    EXPECT_NE(c.log2Prob(), 7u);
    c.reset();
    EXPECT_EQ(c.log2Prob(), 7u);
    EXPECT_EQ(c.epochs(), 0u);
    EXPECT_EQ(c.epochHighPredictions(), 0u);
}

TEST(AdaptiveController, RejectsBadConfig)
{
    AdaptiveProbabilityController::Config bad = smallEpochConfig();
    bad.minLog2 = 8;
    bad.maxLog2 = 4;
    EXPECT_DEATH(AdaptiveProbabilityController{bad}, "minLog2");

    AdaptiveProbabilityController::Config bad2 = smallEpochConfig();
    bad2.epochLength = 0;
    EXPECT_DEATH(AdaptiveProbabilityController{bad2}, "epochLength");

    AdaptiveProbabilityController::Config bad3 = smallEpochConfig();
    bad3.initialLog2 = 20;
    EXPECT_DEATH(AdaptiveProbabilityController{bad3}, "initialLog2");

    AdaptiveProbabilityController::Config bad4 = smallEpochConfig();
    bad4.targetMkp = 0.0;
    EXPECT_DEATH(AdaptiveProbabilityController{bad4}, "targetMkp");
}

TEST(AdaptiveController, RejectsMaxLog2PastThePredictorsRange)
{
    // The predictor's saturation gate stops at log2(1/p) = 15; a
    // controller allowed to climb past it would abort mid-run.
    AdaptiveProbabilityController::Config bad = smallEpochConfig();
    bad.maxLog2 = 16;
    EXPECT_DEATH(AdaptiveProbabilityController{bad}, "maxLog2");

    GradedTageOptions opt;
    opt.adaptive = true;
    opt.adaptiveConfig.initialLog2 = 16;
    opt.adaptiveConfig.maxLog2 = 16;
    EXPECT_DEATH(GradedTage(TageConfig::small16K()
                                .withProbabilisticSaturation(7),
                            opt),
                 "maxLog2");

    AdaptiveProbabilityController::Config edge = smallEpochConfig();
    edge.maxLog2 = 15;
    edge.initialLog2 = 15;
    EXPECT_EQ(AdaptiveProbabilityController(edge).log2Prob(), 15u);
}

/** A saveState() blob with the given fields. */
std::vector<uint8_t>
controllerBlob(uint32_t log2_prob, uint64_t seen, uint64_t high_pred,
               uint64_t high_miss, uint64_t epochs)
{
    StateWriter w;
    w.u32(log2_prob);
    w.u64(seen);
    w.u64(high_pred);
    w.u64(high_miss);
    w.u64(epochs);
    return w.take();
}

TEST(AdaptiveController, SaveStateLayoutIsTheBlobHelpersLayout)
{
    AdaptiveProbabilityController c(smallEpochConfig());
    for (int i = 0; i < 5; ++i)
        c.record(ConfidenceLevel::High, i == 2);
    c.record(ConfidenceLevel::Low, true);
    StateWriter w;
    c.saveState(w);
    EXPECT_EQ(w.take(), controllerBlob(7, 6, 5, 1, 0));
}

TEST(AdaptiveController, LoadStateRejectsEpochCountsSaveStateNeverWrites)
{
    // saveState() always writes highMiss <= highPred <= seen <
    // epochLength: record() closes the epoch as seen reaches
    // epochLength. Any other blob would close an epoch early (or
    // never), and the batched TAGE step splits its batch on
    // epochLength - seen.
    struct Bad {
        uint64_t seen, highPred, highMiss;
    };
    const uint64_t len = smallEpochConfig().epochLength;
    for (const Bad b : {Bad{65536, 5, 9}, Bad{len, 0, 0},
                        Bad{len + 1, 3, 1}, Bad{100, 5, 9},
                        Bad{10, 11, 0}, Bad{0, 1, 1}}) {
        SCOPED_TRACE(testing::Message() << "seen=" << b.seen << " highPred="
                                        << b.highPred << " highMiss="
                                        << b.highMiss);
        AdaptiveProbabilityController c(smallEpochConfig());
        feedEpoch(c, 100.0);
        c.record(ConfidenceLevel::High, true);
        const std::vector<uint8_t> blob =
            controllerBlob(8, b.seen, b.highPred, b.highMiss, 3);
        StateReader in(blob);
        std::string error;
        EXPECT_FALSE(c.loadState(in, error));
        EXPECT_NE(error.find("epoch counts"), std::string::npos) << error;
        EXPECT_EQ(c.log2Prob(), 7u);
        EXPECT_EQ(c.epochs(), 0u);
        EXPECT_EQ(c.epochHighPredictions(), 0u);
        EXPECT_EQ(c.untilEpochEnd(), len);
    }

    // The extremes saveState() can write still load.
    for (const Bad g : {Bad{len - 1, len - 1, len - 1}, Bad{0, 0, 0},
                        Bad{7, 3, 0}}) {
        AdaptiveProbabilityController c(smallEpochConfig());
        const std::vector<uint8_t> blob =
            controllerBlob(9, g.seen, g.highPred, g.highMiss, 4);
        StateReader in(blob);
        std::string error;
        EXPECT_TRUE(c.loadState(in, error)) << error;
        EXPECT_EQ(c.log2Prob(), 9u);
        EXPECT_EQ(c.epochs(), 4u);
        EXPECT_EQ(c.epochHighPredictions(), g.highPred);
        EXPECT_EQ(c.untilEpochEnd(), len - g.seen);
    }
}

TEST(AdaptiveController, UntilEpochEndCountsDownToTheClosingRecord)
{
    AdaptiveProbabilityController c(smallEpochConfig());
    const uint64_t len = c.config().epochLength;
    for (uint64_t i = 0; i < 2 * len; ++i) {
        const uint64_t left = c.untilEpochEnd();
        EXPECT_EQ(left, len - i % len);
        EXPECT_EQ(c.record(ConfidenceLevel::High, false), left == 1);
    }
}

} // namespace
} // namespace tagecon
