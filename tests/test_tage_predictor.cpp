/**
 * @file
 * Functional tests of the TAGE predictor: learning behaviour on
 * canonical patterns, provider/alternate bookkeeping, allocation
 * policy, USE_ALT_ON_NA, and the Sec. 6 probabilistic saturation
 * automaton.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "util/random.hpp"

#include "tage/tage_predictor.hpp"

namespace tagecon {
namespace {

/**
 * Drive a single-branch stream through the predictor; return the
 * misprediction count over the second half (after warmup).
 */
int
missesSecondHalf(TagePredictor& pred, uint64_t pc,
                 const std::function<bool(int)>& outcome, int n)
{
    int misses = 0;
    for (int i = 0; i < n; ++i) {
        const bool taken = outcome(i);
        const TagePrediction p = pred.predict(pc);
        if (i >= n / 2 && p.taken != taken)
            ++misses;
        pred.update(pc, p, taken);
    }
    return misses;
}

TEST(TagePredictor, LearnsConstantBranch)
{
    TagePredictor pred(TageConfig::medium64K());
    EXPECT_EQ(missesSecondHalf(pred, 0x1000,
                               [](int) { return true; }, 2000),
              0);
}

TEST(TagePredictor, LearnsShortLoop)
{
    TagePredictor pred(TageConfig::medium64K());
    EXPECT_EQ(missesSecondHalf(pred, 0x1010,
                               [](int i) { return i % 10 != 9; }, 20000),
              0);
}

TEST(TagePredictor, LearnsAlternatingBranch)
{
    TagePredictor pred(TageConfig::medium64K());
    EXPECT_EQ(missesSecondHalf(pred, 0x1020,
                               [](int i) { return i % 2 == 0; }, 4000),
              0);
}

TEST(TagePredictor, LearnsLongLoopOnlyWithLongHistory)
{
    // A period-200 loop: beyond the small predictor's 80-bit window,
    // within the large predictor's 300-bit window.
    auto outcome = [](int i) { return i % 200 != 199; };

    TagePredictor small(TageConfig::small16K());
    const int small_misses =
        missesSecondHalf(small, 0x1030, outcome, 60000);

    TagePredictor large(TageConfig::large256K());
    const int large_misses =
        missesSecondHalf(large, 0x1030, outcome, 60000);

    // The small predictor mispredicts (at least) most loop exits in
    // the measured half: 150 exits.
    EXPECT_GT(small_misses, 100);
    EXPECT_LT(large_misses, small_misses / 2);
}

TEST(TagePredictor, BimodalProvidesUntilFirstAllocation)
{
    TagePredictor pred(TageConfig::medium64K());
    // A never-mispredicting branch must stay bimodal-provided: tagged
    // entries are only allocated on mispredictions. (The very first
    // lookups can spuriously hit never-written entries because the
    // all-zero history folds match the all-zero initial tags — a real
    // TAGE cold-start artifact — so assertions start at i = 2.)
    for (int i = 0; i < 1000; ++i) {
        const TagePrediction p = pred.predict(0x2000);
        if (i >= 2) {
            EXPECT_FALSE(p.providerIsTagged) << "i=" << i;
            EXPECT_EQ(p.providerTable, 0) << "i=" << i;
        }
        pred.update(0x2000, p, true);
    }
    EXPECT_EQ(pred.allocations(), 0u);
}

TEST(TagePredictor, AllocatesOnMisprediction)
{
    TagePredictor pred(TageConfig::medium64K());
    // Warm bimodal toward taken, then flip the outcome: the resulting
    // misprediction must allocate a tagged entry.
    for (int i = 0; i < 8; ++i) {
        const TagePrediction p = pred.predict(0x2010);
        pred.update(0x2010, p, true);
    }
    const uint64_t before = pred.allocations();
    const TagePrediction p = pred.predict(0x2010);
    EXPECT_TRUE(p.taken); // bimodal says taken
    pred.update(0x2010, p, false);
    EXPECT_EQ(pred.allocations(), before + 1);
}

TEST(TagePredictor, AllocatedEntryStartsWeakCorrect)
{
    TagePredictor pred(TageConfig::medium64K());
    for (int i = 0; i < 8; ++i) {
        const TagePrediction p = pred.predict(0x2020);
        pred.update(0x2020, p, true);
    }
    const TagePrediction p = pred.predict(0x2020);
    pred.update(0x2020, p, false); // mispredict -> allocate

    // The next lookup on the same (pc, history)... history moved, so
    // instead scan the tables for a weak entry with u == 0.
    bool found_weak = false;
    const auto& cfg = pred.config();
    for (int t = 1; t <= cfg.numTaggedTables(); ++t) {
        const auto entries =
            uint32_t{1} << cfg.tagged[static_cast<size_t>(t - 1)]
                               .logEntries;
        for (uint32_t i = 0; i < entries; ++i) {
            const auto& e = pred.taggedEntry(t, i);
            if (e.ctr.value() == -1 && e.u.value() == 0)
                found_weak = true;
        }
    }
    EXPECT_TRUE(found_weak);
}

TEST(TagePredictor, ProviderFieldsAreConsistent)
{
    TagePredictor pred(TageConfig::small16K());
    XorShift128Plus rng(3);
    for (int i = 0; i < 20000; ++i) {
        const uint64_t pc = 0x3000 + (rng.next() % 16) * 4;
        const TagePrediction p = pred.predict(pc);

        if (p.providerIsTagged) {
            EXPECT_GE(p.providerTable, 1);
            EXPECT_LE(p.providerTable, pred.config().numTaggedTables());
            EXPECT_EQ(p.providerStrength % 2, 1);
            EXPECT_EQ(p.providerWeak, p.providerStrength == 1);
            if (!p.providerWeak) {
                EXPECT_FALSE(p.usedAlt);
            }
            if (p.usedAlt)
                EXPECT_EQ(p.taken, p.altTaken);
            else
                EXPECT_EQ(p.taken, p.providerPredTaken);
            if (p.altIsTagged) {
                EXPECT_LT(p.altTable, p.providerTable);
            }
        } else {
            EXPECT_EQ(p.providerTable, 0);
            EXPECT_EQ(p.taken, p.bimodalTaken);
            EXPECT_FALSE(p.usedAlt);
        }
        pred.update(pc, p, rng.nextBool(0.6));
    }
}

TEST(TagePredictor, DeterministicForSeed)
{
    TagePredictor a(TageConfig::medium64K(), 0x1234);
    TagePredictor b(TageConfig::medium64K(), 0x1234);
    XorShift128Plus rng(17);
    for (int i = 0; i < 5000; ++i) {
        const uint64_t pc = 0x4000 + (rng.next() % 64) * 4;
        const bool taken = rng.nextBool(0.5);
        const TagePrediction pa = a.predict(pc);
        const TagePrediction pb = b.predict(pc);
        ASSERT_EQ(pa.taken, pb.taken) << i;
        ASSERT_EQ(pa.providerTable, pb.providerTable) << i;
        a.update(pc, pa, taken);
        b.update(pc, pb, taken);
    }
}

TEST(TagePredictor, ResetRestoresInitialBehaviour)
{
    TagePredictor pred(TageConfig::small16K(), 0x42);
    XorShift128Plus rng(5);
    std::vector<bool> first;
    for (int i = 0; i < 2000; ++i) {
        const uint64_t pc = 0x5000 + (rng.next() % 32) * 4;
        const bool taken = rng.nextBool(0.5);
        const TagePrediction p = pred.predict(pc);
        first.push_back(p.taken);
        pred.update(pc, p, taken);
    }
    pred.reset();
    XorShift128Plus rng2(5);
    for (int i = 0; i < 2000; ++i) {
        const uint64_t pc = 0x5000 + (rng2.next() % 32) * 4;
        const bool taken = rng2.nextBool(0.5);
        const TagePrediction p = pred.predict(pc);
        ASSERT_EQ(p.taken, first[static_cast<size_t>(i)]) << i;
        pred.update(pc, p, taken);
    }
}

TEST(TagePredictor, ResetLeavesTheStateOfAFreshPredictor)
{
    // reset() refills the arenas and registers in place. Byte-granular
    // PCs make the path register, which takes PC bit 0, fill as well.
    const TageConfig cfg =
        TageConfig::small16K().withProbabilisticSaturation(7);
    const auto state = [](const TagePredictor& p) {
        StateWriter w;
        p.saveState(w);
        return w.take();
    };
    TagePredictor used(cfg, 0x42);
    XorShift128Plus rng(9);
    for (int i = 0; i < 3000; ++i) {
        const uint64_t pc = 0x5000 + rng.next() % 97;
        const TagePrediction p = used.predict(pc);
        used.update(pc, p, rng.nextBool(0.5));
    }
    const TagePredictor fresh(cfg, 0x42);
    ASSERT_NE(state(used), state(fresh));
    used.reset();
    EXPECT_EQ(state(used), state(fresh));
}

TEST(TagePredictor, UpdatesCounted)
{
    TagePredictor pred(TageConfig::small16K());
    for (int i = 0; i < 37; ++i) {
        const TagePrediction p = pred.predict(0x6000);
        pred.update(0x6000, p, true);
    }
    EXPECT_EQ(pred.updates(), 37u);
}

TEST(TagePredictor, ProbabilisticSaturationKeepsCountersUnsaturated)
{
    // With p = 1/32768 (log2 = 15), tagged counters should essentially
    // never saturate, even on a perfectly stable pattern.
    TageConfig cfg = TageConfig::small16K().withProbabilisticSaturation(15);
    TagePredictor pred(cfg);
    // Loop branch: allocates tagged entries, trains them hard.
    for (int i = 0; i < 60000; ++i) {
        const bool taken = i % 5 != 4;
        const TagePrediction p = pred.predict(0x7000);
        pred.update(0x7000, p, taken);
    }
    int saturated = 0;
    int occupied = 0;
    for (int t = 1; t <= cfg.numTaggedTables(); ++t) {
        const auto entries =
            uint32_t{1} << cfg.tagged[static_cast<size_t>(t - 1)]
                               .logEntries;
        for (uint32_t i = 0; i < entries; ++i) {
            const auto& e = pred.taggedEntry(t, i);
            if (e.ctr.value() != 0) {
                ++occupied;
                if (e.ctr.saturated())
                    ++saturated;
            }
        }
    }
    EXPECT_GT(occupied, 0);
    // At p = 1/32768 and ~50K reinforcing updates, about one lucky
    // saturation is expected; the point is that saturation is rare,
    // not impossible.
    EXPECT_LE(saturated, 2);
}

TEST(TagePredictor, BaselineAutomatonSaturatesQuickly)
{
    TagePredictor pred(TageConfig::small16K());
    for (int i = 0; i < 60000; ++i) {
        const bool taken = i % 5 != 4;
        const TagePrediction p = pred.predict(0x7000);
        pred.update(0x7000, p, taken);
    }
    int saturated = 0;
    const auto& cfg = pred.config();
    for (int t = 1; t <= cfg.numTaggedTables(); ++t) {
        const auto entries =
            uint32_t{1} << cfg.tagged[static_cast<size_t>(t - 1)]
                               .logEntries;
        for (uint32_t i = 0; i < entries; ++i) {
            if (pred.taggedEntry(t, i).ctr.saturated())
                ++saturated;
        }
    }
    EXPECT_GT(saturated, 0);
}

TEST(TagePredictor, SetSatLog2ProbTakesEffect)
{
    TageConfig cfg = TageConfig::small16K().withProbabilisticSaturation(7);
    TagePredictor pred(cfg);
    EXPECT_EQ(pred.satLog2Prob(), 7u);
    pred.setSatLog2Prob(3);
    EXPECT_EQ(pred.satLog2Prob(), 3u);
}

TEST(TagePredictor, ProbabilisticSaturationAccuracyCostIsMarginal)
{
    // The paper: "less than 0.02 misp/KI in average". Check on a
    // mixed single-predictor stream that the cost is tiny.
    auto run = [](const TageConfig& cfg) {
        TagePredictor pred(cfg);
        XorShift128Plus rng(77);
        int misses = 0;
        const int n = 200000;
        for (int i = 0; i < n; ++i) {
            const uint64_t pc = 0x8000 + (rng.next() % 24) * 4;
            const bool taken =
                (pc % 3 == 0) ? (i % 7 != 6) : rng.nextBool(0.85);
            const TagePrediction p = pred.predict(pc);
            if (p.taken != taken)
                ++misses;
            pred.update(pc, p, taken);
        }
        return misses;
    };
    const int base = run(TageConfig::medium64K());
    const int mod =
        run(TageConfig::medium64K().withProbabilisticSaturation(7));
    // Within 5% relative of each other.
    EXPECT_LT(std::abs(base - mod), base / 20);
}

TEST(TagePredictor, UseAltOnNaCounterMoves)
{
    TagePredictor pred(TageConfig::medium64K());
    const int initial = pred.useAltOnNa();
    XorShift128Plus rng(9);
    // Random stream forces weak providers whose alt disagrees.
    bool moved = false;
    for (int i = 0; i < 50000 && !moved; ++i) {
        const uint64_t pc = 0x9000 + (rng.next() % 64) * 4;
        const TagePrediction p = pred.predict(pc);
        pred.update(pc, p, rng.nextBool(0.5));
        moved = pred.useAltOnNa() != initial;
    }
    EXPECT_TRUE(moved);
}

TEST(TagePredictor, UpdateMustPairWithTheLastPredict)
{
    // update() trains from the lookup its predict() left in the rows,
    // so it must name that predict()'s pc, and only once.
    TagePredictor pred(TageConfig::small16K());
    EXPECT_DEATH(pred.update(0x1000, TagePrediction{}, true),
                 "immediately preceding predict");
    const TagePrediction p = pred.predict(0x1000);
    EXPECT_DEATH(pred.update(0x1004, p, true),
                 "immediately preceding predict");
    pred.update(0x1000, p, true);
    EXPECT_DEATH(pred.update(0x1000, p, true),
                 "immediately preceding predict");

    // A restore drops a pending predict(), as a reset() does.
    StateWriter w;
    pred.saveState(w);
    const std::vector<uint8_t> blob = w.take();
    const TagePrediction q = pred.predict(0x1000);
    StateReader in(blob);
    std::string error;
    ASSERT_TRUE(pred.loadState(in, error)) << error;
    EXPECT_DEATH(pred.update(0x1000, q, true),
                 "immediately preceding predict");
}

TEST(TagePredictor, IntrospectionBoundsChecked)
{
    TagePredictor pred(TageConfig::small16K());
    EXPECT_DEATH(pred.taggedEntry(0, 0), "out of range");
    EXPECT_DEATH(pred.taggedEntry(5, 0), "out of range");
    EXPECT_DEATH(pred.taggedEntry(1, 1u << 20), "out of range");
    EXPECT_DEATH(pred.bimodalEntry(1u << 20), "out of range");
    EXPECT_DEATH(pred.lastLookup(5), "out of range");
}

/** The predictor works for every paper configuration. */
class TageAllConfigs : public ::testing::TestWithParam<int>
{
};

TEST_P(TageAllConfigs, LearnsMixedStream)
{
    const TageConfig cfg =
        TageConfig::paperConfigs()[static_cast<size_t>(GetParam())];
    TagePredictor pred(cfg);
    // Deterministic round-robin over two interleaved loop branches
    // (periods 3 and 4): the combined outcome stream has period
    // 2 * lcm(3,4) = 24, well within every configuration's history.
    int late_misses = 0;
    const int n = 60000;
    int cnt_a = 0;
    int cnt_b = 0;
    for (int i = 0; i < n; ++i) {
        const bool is_a = i % 2 == 0;
        const uint64_t pc = is_a ? 0xA000 : 0xA040;
        bool taken;
        if (is_a) {
            taken = cnt_a % 3 != 2;
            ++cnt_a;
        } else {
            taken = cnt_b % 4 != 3;
            ++cnt_b;
        }
        const TagePrediction p = pred.predict(pc);
        if (i > n / 2 && p.taken != taken)
            ++late_misses;
        pred.update(pc, p, taken);
    }
    EXPECT_LT(late_misses, n / 2 / 100);
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, TageAllConfigs,
                         ::testing::Values(0, 1, 2));

} // namespace
} // namespace tagecon
