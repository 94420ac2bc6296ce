/**
 * @file
 * Unit tests for the deterministic random sources.
 */

#include <gtest/gtest.h>

#include <set>

#include "util/random.hpp"

namespace tagecon {
namespace {

TEST(XorShift, DeterministicForSeed)
{
    XorShift128Plus a(123);
    XorShift128Plus b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(XorShift, DifferentSeedsDiverge)
{
    XorShift128Plus a(1);
    XorShift128Plus b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(XorShift, ZeroSeedIsLegal)
{
    XorShift128Plus r(0);
    // Must not collapse to all-zero output.
    uint64_t ored = 0;
    for (int i = 0; i < 16; ++i)
        ored |= r.next();
    EXPECT_NE(ored, 0u);
}

TEST(XorShift, NextBelowRespectsBound)
{
    XorShift128Plus r(7);
    for (const uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.nextBelow(bound), bound);
    }
    EXPECT_EQ(r.nextBelow(0), 0u);
    EXPECT_EQ(r.nextBelow(1), 0u);
}

TEST(XorShift, NextBelowCoversRange)
{
    XorShift128Plus r(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(r.nextBelow(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(XorShift, PrecomputedBoundDrawsLikeNextBelow)
{
    // Same values from the same raw draws, rejections included: a bound
    // just above 2^63 rejects almost half of them.
    for (const uint64_t bound :
         {0ull, 1ull, 2ull, 3ull, 7ull, 1000ull, (1ull << 63) + 1,
          ~0ull}) {
        XorShift128Plus a(17);
        XorShift128Plus b(17);
        const XorShift128Plus::Bound pre(bound);
        for (int i = 0; i < 200; ++i)
            ASSERT_EQ(a.nextBelow(pre), b.nextBelow(bound)) << bound;
        EXPECT_EQ(a.next(), b.next()) << bound;
    }
}

TEST(XorShift, NextDoubleInUnitInterval)
{
    XorShift128Plus r(13);
    for (int i = 0; i < 1000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(XorShift, NextDoubleIsRoughlyUniform)
{
    XorShift128Plus r(17);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(XorShift, NextBoolEdgeProbabilities)
{
    XorShift128Plus r(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.nextBool(0.0));
        EXPECT_TRUE(r.nextBool(1.0));
        EXPECT_FALSE(r.nextBool(-1.0));
        EXPECT_TRUE(r.nextBool(2.0));
    }
}

TEST(XorShift, NextBoolMatchesProbability)
{
    XorShift128Plus r(23);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Lfsr16, ZeroSeedReplaced)
{
    Lfsr16 l(0);
    EXPECT_NE(l.value(), 0);
}

TEST(Lfsr16, NeverReachesZero)
{
    Lfsr16 l(0xACE1);
    for (int i = 0; i < 70000; ++i)
        EXPECT_NE(l.next(), 0);
}

TEST(Lfsr16, FullPeriod)
{
    // Maximal-length 16-bit LFSR: period 2^16 - 1.
    Lfsr16 l(1);
    const uint16_t start = l.value();
    int steps = 0;
    do {
        l.next();
        ++steps;
    } while (l.value() != start && steps <= 70000);
    EXPECT_EQ(steps, 65535);
}

TEST(Lfsr16, OneInZeroAlwaysTrue)
{
    Lfsr16 l;
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(l.oneIn(0));
}

TEST(Lfsr16, OneInMatchesRate)
{
    Lfsr16 l(0x1234);
    for (const unsigned log2d : {1u, 3u, 5u, 7u}) {
        int hits = 0;
        const int n = 1 << 16;
        Lfsr16 gen(0x1234);
        for (int i = 0; i < n; ++i)
            hits += gen.oneIn(log2d) ? 1 : 0;
        const double expected = static_cast<double>(n) / (1 << log2d);
        EXPECT_NEAR(hits, expected, expected * 0.15)
            << "log2d=" << log2d;
    }
}

TEST(Lfsr16, DeterministicForSeed)
{
    Lfsr16 a(42);
    Lfsr16 b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

} // namespace
} // namespace tagecon
