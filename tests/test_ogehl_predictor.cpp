/**
 * @file
 * Tests for the O-GEHL predictor and its self-confidence estimate.
 */

#include <gtest/gtest.h>

#include "baseline/ogehl_predictor.hpp"
#include "util/random.hpp"

namespace tagecon {
namespace {

TEST(Ogehl, LearnsConstantBranch)
{
    OgehlPredictor p;
    for (int i = 0; i < 200; ++i)
        p.update(0x40, p.predict(0x40), true);
    EXPECT_TRUE(p.predict(0x40).taken);
    for (int i = 0; i < 400; ++i)
        p.update(0x80, p.predict(0x80), false);
    EXPECT_FALSE(p.predict(0x80).taken);
}

TEST(Ogehl, LearnsAlternation)
{
    OgehlPredictor p;
    int late_misses = 0;
    for (int i = 0; i < 4000; ++i) {
        const bool taken = i % 2 == 0;
        const Prediction pred = p.predict(0x40);
        if (pred.taken != taken && i > 2000)
            ++late_misses;
        p.update(0x40, pred, taken);
    }
    EXPECT_LT(late_misses, 20);
}

TEST(Ogehl, LearnsLongLoopViaGeometricHistory)
{
    // A period-60 loop needs a component with history >= 60; the
    // default config reaches 200.
    OgehlPredictor p;
    int late_misses = 0;
    const int n = 60000;
    for (int i = 0; i < n; ++i) {
        const bool taken = i % 60 != 59;
        const Prediction pred = p.predict(0x40);
        if (pred.taken != taken && i > n / 2)
            ++late_misses;
        p.update(0x40, pred, taken);
    }
    EXPECT_LT(late_misses, n / 2 / 50);
}

TEST(Ogehl, SelfConfidenceLowWhenUntrained)
{
    OgehlPredictor p;
    p.predict(0x40);
    EXPECT_FALSE(p.lastHighConfidence());
}

TEST(Ogehl, SelfConfidenceHighAfterTraining)
{
    OgehlPredictor p;
    for (int i = 0; i < 500; ++i)
        p.update(0x40, p.predict(0x40), true);
    p.predict(0x40);
    EXPECT_TRUE(p.lastHighConfidence());
    EXPECT_GE(p.lastSum(), p.theta());
}

TEST(Ogehl, ThetaAdaptsUpwardUnderNoise)
{
    OgehlPredictor p;
    const int initial = p.theta();
    XorShift128Plus rng(3);
    // Pure noise: constant mispredictions drive theta up.
    for (int i = 0; i < 60000; ++i) {
        const uint64_t pc = 0x100 + (rng.next() % 16) * 4;
        p.update(pc, p.predict(pc), rng.nextBool(0.5));
    }
    EXPECT_GT(p.theta(), initial);
}

TEST(Ogehl, StorageBits)
{
    OgehlPredictor::Config cfg;
    cfg.numTables = 8;
    cfg.logEntries = 11;
    cfg.ctrBits = 4;
    EXPECT_EQ(OgehlPredictor(cfg).storageBits(), 8u * 2048 * 4);
}

TEST(Ogehl, RejectsBadConfig)
{
    OgehlPredictor::Config bad;
    bad.numTables = 1;
    EXPECT_DEATH(OgehlPredictor{bad}, "table count");
    OgehlPredictor::Config bad2;
    bad2.maxHistory = 1;
    bad2.minHistory = 5;
    EXPECT_DEATH(OgehlPredictor{bad2}, "history bounds");
}

TEST(Ogehl, HistorySpanTooShortDiesAtConstruction)
{
    // T1..T15 need 15 strictly increasing lengths, which 1..2 cannot
    // hold: the config must die here, not overflow the history buffer
    // mid-run.
    OgehlPredictor::Config tight;
    tight.numTables = 16;
    tight.minHistory = 1;
    tight.maxHistory = 2;
    EXPECT_DEATH(OgehlPredictor{tight},
                 "maxhist 2 too short for 15 history lengths starting at "
                 "minhist 1");
}

TEST(Ogehl, BeatsCoinOnBiasedStream)
{
    OgehlPredictor p;
    XorShift128Plus rng(9);
    int misses = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const bool taken = rng.nextBool(0.8);
        const Prediction pred = p.predict(0x200);
        if (pred.taken != taken)
            ++misses;
        p.update(0x200, pred, taken);
    }
    // Must approach the 20% intrinsic floor.
    EXPECT_LT(misses, n * 30 / 100);
}

} // namespace
} // namespace tagecon
