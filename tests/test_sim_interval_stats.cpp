/**
 * @file
 * Tests for the interval (windowed) statistics of IntervalObserver.
 */

#include <gtest/gtest.h>

#include "analysis/observers.hpp"
#include "util/random.hpp"

namespace tagecon {
namespace {

/** Feed one graded, resolved prediction of class @p c. */
void
record(IntervalObserver& o, PredictionClass c, bool mispredicted,
       uint64_t instructions)
{
    ObservedPrediction p;
    p.prediction.cls = c;
    p.mispredicted = mispredicted;
    p.instructions = instructions;
    o.onPrediction(p);
}

IntervalAnalysis
finish(IntervalObserver& o)
{
    RunAnalysis out;
    o.finish(out);
    return *out.intervals;
}

TEST(IntervalObserver, SplitsAtExactBoundaries)
{
    IntervalObserver o(100);
    for (int i = 0; i < 250; ++i)
        record(o, PredictionClass::Stag, false, 1);
    const IntervalAnalysis a = finish(o);
    EXPECT_EQ(a.intervalLength, 100u);
    EXPECT_EQ(a.completeIntervals, 2u);
    ASSERT_EQ(a.intervals.size(), 3u);
    EXPECT_EQ(a.intervals[0].totalPredictions(), 100u);
    EXPECT_EQ(a.intervals[1].totalPredictions(), 100u);
    EXPECT_EQ(a.intervals[2].totalPredictions(), 50u); // partial tail
}

TEST(IntervalObserver, IntervalsAreIndependent)
{
    IntervalObserver o(10);
    // First interval: all mispredicted; second: none.
    for (int i = 0; i < 10; ++i)
        record(o, PredictionClass::Wtag, true, 1);
    for (int i = 0; i < 10; ++i)
        record(o, PredictionClass::Wtag, false, 1);
    const IntervalAnalysis a = finish(o);
    ASSERT_EQ(a.completeIntervals, 2u);
    EXPECT_FALSE(a.hasPartialTail());
    EXPECT_EQ(a.intervals[0].totalMispredictions(), 10u);
    EXPECT_EQ(a.intervals[1].totalMispredictions(), 0u);
}

TEST(IntervalObserver, SumOfIntervalsEqualsWhole)
{
    IntervalObserver o(37); // deliberately not a divisor
    ClassStats whole;
    XorShift128Plus rng(3);
    for (int i = 0; i < 1000; ++i) {
        const auto c = kAllPredictionClasses[rng.next() % 7];
        const bool mis = rng.nextBool(0.2);
        const uint64_t instr = 1 + rng.next() % 7;
        record(o, c, mis, instr);
        whole.record(c, mis, instr);
    }
    ClassStats merged;
    for (const auto& s : finish(o).intervals)
        merged.merge(s);
    EXPECT_EQ(merged.totalPredictions(), whole.totalPredictions());
    EXPECT_EQ(merged.totalMispredictions(),
              whole.totalMispredictions());
    EXPECT_EQ(merged.instructions(), whole.instructions());
}

TEST(IntervalObserver, ZeroLengthIsABug)
{
    EXPECT_DEATH(IntervalObserver{0}, "interval length");
}

TEST(IntervalObserver, LengthOne)
{
    IntervalObserver o(1);
    record(o, PredictionClass::NStag, true, 3);
    record(o, PredictionClass::NStag, false, 4);
    const IntervalAnalysis a = finish(o);
    EXPECT_EQ(a.completeIntervals, 2u);
    EXPECT_EQ(a.intervals[0].totalMispredictions(), 1u);
    EXPECT_EQ(a.intervals[1].totalMispredictions(), 0u);
}

} // namespace
} // namespace tagecon
