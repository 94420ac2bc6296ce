/**
 * @file
 * Tests for the L-TAGE loop predictor and L-TAGE: GradedTage with its
 * loop part attached.
 */

#include <gtest/gtest.h>

#include "tage/graded_tage.hpp"
#include "util/random.hpp"

namespace tagecon {
namespace {

/** L-TAGE over the 16K TAGE. */
GradedTage
makeLTage()
{
    GradedTageOptions opt;
    opt.loop = true;
    return GradedTage(TageConfig::small16K(), opt);
}

/** Feed a loop branch with constant trip count. */
void
feedLoop(LoopPredictor& lp, uint64_t pc, int trip, int runs,
         bool main_mispredicted_on_exit = true)
{
    for (int r = 0; r < runs; ++r) {
        for (int i = 0; i < trip - 1; ++i)
            lp.update(pc, true, false);
        lp.update(pc, false, main_mispredicted_on_exit);
    }
}

TEST(LoopPredictor, ColdLookupIsInvalid)
{
    LoopPredictor lp;
    EXPECT_FALSE(lp.lookup(0x40).valid);
}

TEST(LoopPredictor, LearnsConstantTripCount)
{
    LoopPredictor lp;
    // Drive complete runs; the main predictor "mispredicts" the exits,
    // which is where allocation happens in L-TAGE.
    for (int i = 0; i < 60; ++i)
        lp.update(0x40, i % 10 != 9, i % 10 == 9);

    // Now confident: inside the loop it predicts taken, at the learned
    // trip count it predicts the exit.
    int correct = 0;
    for (int i = 0; i < 10; ++i) {
        const LoopPredictor::Result r = lp.lookup(0x40);
        ASSERT_TRUE(r.valid) << "i=" << i;
        const bool actual = i != 9;
        if (r.taken == actual)
            ++correct;
        lp.update(0x40, actual, false);
    }
    EXPECT_EQ(correct, 10);
}

TEST(LoopPredictor, PredictsExitOfVeryLongLoop)
{
    // Trip count 500: far beyond even the 256K TAGE's 300-bit history.
    LoopPredictor lp;
    for (int r = 0; r < 5; ++r) {
        for (int i = 0; i < 500; ++i)
            lp.update(0x80, i != 499, i == 499);
    }
    // Walk one more run checking the exit is called exactly.
    for (int i = 0; i < 500; ++i) {
        const LoopPredictor::Result r = lp.lookup(0x80);
        ASSERT_TRUE(r.valid);
        EXPECT_EQ(r.taken, i != 499) << "iteration " << i;
        lp.update(0x80, i != 499, false);
    }
}

TEST(LoopPredictor, VariableTripCountStaysUnconfident)
{
    LoopPredictor lp;
    // Alternate trip counts 7 and 9: confidence must never hold.
    for (int r = 0; r < 40; ++r) {
        const int trip = (r % 2 == 0) ? 7 : 9;
        for (int i = 0; i < trip; ++i)
            lp.update(0xC0, i != trip - 1, i == trip - 1);
    }
    EXPECT_FALSE(lp.lookup(0xC0).valid);
}

TEST(LoopPredictor, NoAllocationWithoutMispredictionHint)
{
    LoopPredictor lp;
    feedLoop(lp, 0x100, 8, 10, /*main_mispredicted_on_exit=*/false);
    // updates never allocated because TAGE was always right.
    EXPECT_FALSE(lp.lookup(0x100).valid);
    EXPECT_EQ(lp.confidentEntries(), 0);
}

TEST(LoopPredictor, OverflowingLoopFreesEntry)
{
    LoopPredictor::Config cfg;
    cfg.iterBits = 4; // max trackable trip count 15
    LoopPredictor lp(cfg);
    // Allocate at a mispredicted exit, then run far beyond the
    // iteration counter's range.
    lp.update(0x140, false, true);
    for (int i = 0; i < 100; ++i)
        lp.update(0x140, true, false);
    lp.update(0x140, false, false);
    EXPECT_FALSE(lp.lookup(0x140).valid);
}

TEST(LoopPredictor, StorageBits)
{
    LoopPredictor::Config cfg;
    cfg.logEntries = 6;
    cfg.tagBits = 14;
    cfg.iterBits = 10;
    cfg.confBits = 2;
    cfg.ageBits = 8;
    // 64 x (14 + 20 + 2 + 8 + 2) = 64 x 46.
    EXPECT_EQ(LoopPredictor(cfg).storageBits(), 64u * 46);
}

TEST(LTage, LoopPredictorRescuesLongLoops)
{
    // A period-200 loop at the 16K TAGE (80-bit history): plain TAGE
    // mispredicts most exits, L-TAGE catches them.
    auto run = [](bool use_ltage) {
        int misses = 0;
        const int n = 60000;
        if (use_ltage) {
            GradedTage pred = makeLTage();
            for (int i = 0; i < n; ++i) {
                const bool taken = i % 200 != 199;
                const Prediction p = pred.predict(0x4000);
                if (i > n / 2 && p.taken != taken)
                    ++misses;
                pred.update(0x4000, p, taken);
            }
        } else {
            TagePredictor pred(TageConfig::small16K());
            for (int i = 0; i < n; ++i) {
                const bool taken = i % 200 != 199;
                const TagePrediction p = pred.predict(0x4000);
                if (i > n / 2 && p.taken != taken)
                    ++misses;
                pred.update(0x4000, p, taken);
            }
        }
        return misses;
    };
    const int tage_misses = run(false);
    const int ltage_misses = run(true);
    EXPECT_GT(tage_misses, 50);
    EXPECT_LT(ltage_misses, tage_misses / 5);
}

TEST(LTage, WithLoopHysteresisEngages)
{
    GradedTage pred = makeLTage();
    ASSERT_NE(pred.loop(), nullptr);
    EXPECT_LT(pred.loop()->withLoop.value(), 0); // starts distrusting
    for (int i = 0; i < 60000; ++i) {
        const bool taken = i % 150 != 149;
        const Prediction p = pred.predict(0x4000);
        pred.update(0x4000, p, taken);
    }
    // After the loop predictor repeatedly beats TAGE on the exits,
    // WITHLOOP must have learned to trust it.
    EXPECT_GE(pred.loop()->withLoop.value(), 0);
    EXPECT_GT(pred.loop()->table.confidentEntries(), 0);
}

TEST(LTage, StorageIncludesBothComponents)
{
    const GradedTage pred = makeLTage();
    ASSERT_NE(pred.loop(), nullptr);
    EXPECT_EQ(pred.storageBits(),
              pred.tage().storageBits() + pred.loop()->table.storageBits());
}

TEST(LTage, NoHarmOnLooplessStream)
{
    // On a loop-free biased stream the wrapper must match plain TAGE.
    auto run = [](bool use_ltage) {
        XorShift128Plus rng(5);
        int misses = 0;
        GradedTage lt = makeLTage();
        TagePredictor t(TageConfig::small16K());
        for (int i = 0; i < 30000; ++i) {
            const uint64_t pc = 0x9000 + (rng.next() % 32) * 4;
            const bool taken = rng.nextBool(0.85);
            if (use_ltage) {
                const Prediction p = lt.predict(pc);
                if (p.taken != taken)
                    ++misses;
                lt.update(pc, p, taken);
            } else {
                const TagePrediction p = t.predict(pc);
                if (p.taken != taken)
                    ++misses;
                t.update(pc, p, taken);
            }
        }
        return misses;
    };
    const int tage = run(false);
    const int ltage = run(true);
    EXPECT_NEAR(static_cast<double>(ltage), static_cast<double>(tage),
                static_cast<double>(tage) * 0.05);
}

} // namespace
} // namespace tagecon
