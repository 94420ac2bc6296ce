/**
 * @file
 * Unit and property tests for the global history ring buffer and the
 * incremental folded-history registers that the TAGE index/tag hashes
 * are built on. The key property: the O(1) incremental fold always
 * equals the O(L) from-scratch recomputation.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "util/global_history.hpp"
#include "util/random.hpp"
#include "util/simd.hpp"

namespace tagecon {
namespace {

TEST(GlobalHistory, NewestAtIndexZero)
{
    GlobalHistory h(16);
    h.push(true);
    h.push(false);
    h.push(true);
    EXPECT_EQ(h[0], 1);
    EXPECT_EQ(h[1], 0);
    EXPECT_EQ(h[2], 1);
}

TEST(GlobalHistory, StartsCleared)
{
    GlobalHistory h(8);
    for (size_t i = 0; i < h.capacity(); ++i)
        EXPECT_EQ(h[i], 0);
}

TEST(GlobalHistory, CapacityAtLeastRequested)
{
    for (const size_t req : {1u, 7u, 64u, 100u, 300u}) {
        GlobalHistory h(req);
        EXPECT_GE(h.capacity(), req);
    }
}

TEST(GlobalHistory, WrapsAroundCorrectly)
{
    GlobalHistory h(4);
    // Push more than the capacity; the most recent entries must
    // still read back correctly.
    std::vector<uint8_t> shadow;
    for (int i = 0; i < 100; ++i) {
        const bool bit = (i * 7 % 3) == 0;
        h.push(bit);
        shadow.push_back(bit ? 1 : 0);
    }
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(h[i], shadow[shadow.size() - 1 - i]) << "i=" << i;
}

TEST(GlobalHistory, CopyNewestListsTheNewestOutcomesOldestFirst)
{
    // Head positions all around the ring, so the copied range both
    // does and does not wrap.
    GlobalHistory h(13); // rounds up to a 16-slot ring, 15 addressable
    XorShift128Plus rng(11);
    for (int pushes = 0; pushes < 40; ++pushes) {
        for (size_t count = 0; count <= h.capacity() + 1; ++count) {
            std::vector<uint8_t> dst(count + 1, 0xAB);
            h.copyNewest(dst.data(), count);
            for (size_t j = 0; j < count; ++j)
                ASSERT_EQ(dst[count - 1 - j], h[j])
                    << "pushes=" << pushes << " count=" << count;
            EXPECT_EQ(dst[count], 0xAB) << "wrote past the count";
        }
        h.push(rng.nextBool(0.5));
    }
}

TEST(GlobalHistory, ClearResets)
{
    GlobalHistory h(8);
    for (int i = 0; i < 20; ++i)
        h.push(true);
    h.clear();
    for (size_t i = 0; i < h.capacity(); ++i)
        EXPECT_EQ(h[i], 0);
}

TEST(FoldedHistory, ValueFitsWidth)
{
    GlobalHistory h(64);
    FoldedHistory f(40, 9);
    XorShift128Plus rng(3);
    for (int i = 0; i < 1000; ++i) {
        h.push(rng.nextBool(0.5));
        f.update(h);
        EXPECT_LT(f.value(), 1u << 9);
    }
}

TEST(FoldedHistory, ZeroLengthFoldsToZero)
{
    GlobalHistory h(16);
    FoldedHistory f(0, 5);
    for (int i = 0; i < 50; ++i) {
        h.push(i % 2 == 0);
        f.update(h);
        EXPECT_EQ(f.value(), 0u);
    }
}

/**
 * Property: incremental update == from-scratch recompute, across
 * (history length, fold width) combinations including the paper's
 * extremes (history 300 folded to 11 bits).
 */
class FoldedHistoryProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(FoldedHistoryProperty, IncrementalMatchesRecompute)
{
    const auto [length, width] = GetParam();
    GlobalHistory h(static_cast<size_t>(length) + 2);
    FoldedHistory inc(length, width);
    FoldedHistory scratch(length, width);
    XorShift128Plus rng(static_cast<uint64_t>(length * 131 + width));

    for (int i = 0; i < 2000; ++i) {
        h.push(rng.nextBool(0.37));
        inc.update(h);
        scratch.recompute(h);
        ASSERT_EQ(inc.value(), scratch.value())
            << "diverged at step " << i << " (L=" << length
            << ", W=" << width << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FoldedHistoryProperty,
    ::testing::Values(std::make_tuple(3, 8), std::make_tuple(5, 9),
                      std::make_tuple(9, 8), std::make_tuple(27, 8),
                      std::make_tuple(80, 8), std::make_tuple(130, 9),
                      std::make_tuple(300, 11), std::make_tuple(300, 10),
                      std::make_tuple(16, 4), std::make_tuple(7, 7),
                      std::make_tuple(64, 9), std::make_tuple(12, 12)));

#if defined(TAGECON_SIMD_LANES)
TEST(FoldedHistory, FourLaneStepMatchesTheTriple)
{
    // Lanes (a, b, c, a) of one table, stepped by simd::foldStep4 with
    // the constants TagePredictor derives, against the scalar triple.
    XorShift128Plus rng(23);
    for (int round = 0; round < 300; ++round) {
        const int length = 1 + static_cast<int>(rng.nextBelow(4000));
        const int width_a = 1 + static_cast<int>(rng.nextBelow(24));
        const int width_b = 2 + static_cast<int>(rng.nextBelow(15));
        FoldedHistoryTriple triple(length, width_a, width_b, width_b - 1);
        triple.restore(static_cast<uint32_t>(rng.next()),
                       static_cast<uint32_t>(rng.next()),
                       static_cast<uint32_t>(rng.next()));
        const int widths[4] = {width_a, width_b, width_b - 1, width_a};
        uint32_t half[4];
        uint32_t wrap[4];
        uint32_t out_bit[4];
        for (int lane = 0; lane < 4; ++lane) {
            half[lane] = (1u << (widths[lane] - 1)) - 1u;
            wrap[lane] = (1u << widths[lane]) | 1u;
            out_bit[lane] = 1u << (length % widths[lane]);
        }
        simd::U32x4 lanes = {triple.a(), triple.b(), triple.c(), triple.a()};
        for (int step = 0; step < 64; ++step) {
            const uint32_t in = rng.nextBool(0.5) ? 1u : 0u;
            const uint32_t out = rng.nextBool(0.5) ? 1u : 0u;
            triple.updateWithBits(in, out);
            lanes = simd::foldStep4(
                lanes,
                simd::splat4(in) ^ (simd::splat4(0u - out) &
                                    simd::load4(out_bit)),
                simd::load4(half), simd::load4(wrap));
            ASSERT_EQ(lanes[0], triple.a()) << "L=" << length;
            ASSERT_EQ(lanes[1], triple.b()) << "L=" << length;
            ASSERT_EQ(lanes[2], triple.c()) << "L=" << length;
            ASSERT_EQ(lanes[3], triple.a()) << "L=" << length;
        }
    }
}
#endif

TEST(FoldedHistory, ClearMatchesFreshStart)
{
    GlobalHistory h(64);
    FoldedHistory f(20, 7);
    XorShift128Plus rng(5);
    for (int i = 0; i < 100; ++i) {
        h.push(rng.nextBool(0.5));
        f.update(h);
    }
    h.clear();
    f.clear();
    EXPECT_EQ(f.value(), 0u);
    // After clearing both, the pair behaves like a fresh pair.
    FoldedHistory fresh(20, 7);
    for (int i = 0; i < 100; ++i) {
        h.push(rng.nextBool(0.5));
        f.update(h);
        fresh.update(h);
        EXPECT_EQ(f.value(), fresh.value());
    }
}

TEST(PathHistory, ShiftsInLowPcBit)
{
    PathHistory p(8);
    p.push(0x1); // odd pc
    p.push(0x2); // even pc
    p.push(0x3); // odd pc
    EXPECT_EQ(p.value(), 0b101u);
}

TEST(PathHistory, MasksToWidth)
{
    PathHistory p(4);
    for (int i = 0; i < 100; ++i)
        p.push(1);
    EXPECT_EQ(p.value(), 0xFu);
}

TEST(PathHistory, ClearResets)
{
    PathHistory p(16);
    for (int i = 0; i < 10; ++i)
        p.push(1);
    p.clear();
    EXPECT_EQ(p.value(), 0u);
}

} // namespace
} // namespace tagecon
