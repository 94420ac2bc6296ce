/**
 * @file
 * Unit and property tests for the synthetic workload generator.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <set>

#include "trace/profiles.hpp"
#include "trace/workload.hpp"

namespace tagecon {
namespace {

/** Heap allocations made through operator new in this binary. */
std::atomic<uint64_t> gAllocations{0};

} // namespace
} // namespace tagecon

// Counting replacements of the global allocation functions (the array,
// nothrow and sized forms forward to these).
void*
operator new(std::size_t size)
{
    tagecon::gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace tagecon {
namespace {

ProfileParams
tinyProfile()
{
    ProfileParams p;
    p.name = "tiny";
    p.seed = 7;
    p.numFunctions = 8;
    p.minSitesPerFunction = 2;
    p.maxSitesPerFunction = 6;
    return p;
}

TEST(SyntheticTrace, ProducesExactlyRequestedRecords)
{
    SyntheticTrace t(tinyProfile(), 1234);
    BranchRecord rec;
    uint64_t n = 0;
    while (t.next(rec))
        ++n;
    EXPECT_EQ(n, 1234u);
    EXPECT_FALSE(t.next(rec));
}

TEST(SyntheticTrace, DeterministicForSeed)
{
    SyntheticTrace a(tinyProfile(), 5000);
    SyntheticTrace b(tinyProfile(), 5000);
    BranchRecord ra;
    BranchRecord rb;
    while (a.next(ra)) {
        ASSERT_TRUE(b.next(rb));
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.taken, rb.taken);
        ASSERT_EQ(ra.instructionsBefore, rb.instructionsBefore);
    }
    EXPECT_FALSE(b.next(rb));
}

TEST(SyntheticTrace, ResetReplaysIdentically)
{
    SyntheticTrace t(tinyProfile(), 3000);
    std::vector<BranchRecord> first;
    BranchRecord rec;
    while (t.next(rec))
        first.push_back(rec);

    t.reset();
    size_t i = 0;
    while (t.next(rec)) {
        ASSERT_LT(i, first.size());
        ASSERT_EQ(rec.pc, first[i].pc);
        ASSERT_EQ(rec.taken, first[i].taken);
        ASSERT_EQ(rec.instructionsBefore, first[i].instructionsBefore);
        ++i;
    }
    EXPECT_EQ(i, first.size());
}

TEST(SyntheticTrace, DifferentSeedsProduceDifferentStreams)
{
    ProfileParams pa = tinyProfile();
    ProfileParams pb = tinyProfile();
    pb.seed = 8;
    SyntheticTrace a(pa, 2000);
    SyntheticTrace b(pb, 2000);
    BranchRecord ra;
    BranchRecord rb;
    int diff = 0;
    while (a.next(ra) && b.next(rb)) {
        if (ra.pc != rb.pc || ra.taken != rb.taken)
            ++diff;
    }
    EXPECT_GT(diff, 100);
}

TEST(SyntheticTrace, InstructionsWithinConfiguredRange)
{
    ProfileParams p = tinyProfile();
    p.instrPerBranchMin = 3;
    p.instrPerBranchMax = 9;
    SyntheticTrace t(p, 5000);
    BranchRecord rec;
    while (t.next(rec)) {
        EXPECT_GE(rec.instructionsBefore, 3u);
        EXPECT_LE(rec.instructionsBefore, 9u);
    }
}

TEST(SyntheticTrace, FootprintMatchesFunctionCount)
{
    ProfileParams p = tinyProfile();
    p.numFunctions = 17;
    SyntheticTrace t(p, 1);
    EXPECT_EQ(t.numFunctions(), 17u);
    EXPECT_GE(t.numSites(), 17u * 2);
    EXPECT_LE(t.numSites(), 17u * 6);
}

TEST(SyntheticTrace, SitePcsAreDistinct)
{
    ProfileParams p = tinyProfile();
    p.numFunctions = 32;
    SyntheticTrace t(p, 20000);
    BranchRecord rec;
    std::set<uint64_t> pcs;
    while (t.next(rec))
        pcs.insert(rec.pc);
    // The dynamic stream must exercise a reasonable fraction of the
    // static footprint, and PCs must look scattered (not clustered on
    // one stride).
    EXPECT_GT(pcs.size(), 32u);
    std::set<uint64_t> low_bits;
    for (const auto pc : pcs)
        low_bits.insert(pc & 0x3FF);
    EXPECT_GT(low_bits.size(), pcs.size() / 2);
}

TEST(SyntheticTrace, LoopsIterateInPlace)
{
    // With only loop behaviour, the stream must contain runs of the
    // same PC: taken (period-1) times then not-taken once.
    ProfileParams p = tinyProfile();
    p.fracAlways = 0.0;
    p.fracLoop = 1.0;
    p.fracPattern = 0.0;
    p.fracBiased = 0.0;
    p.fracMarkov = 0.0;
    p.fracCorrelated = 0.0;
    p.loopBodyMax = 0; // pure self-loops
    p.loopPeriodMin = 4;
    p.loopPeriodMax = 4;
    p.loopTripJitter = 0.0;
    SyntheticTrace t(p, 2000);

    BranchRecord rec;
    std::map<uint64_t, int> run_length;
    while (t.next(rec)) {
        if (rec.taken) {
            ++run_length[rec.pc];
        } else {
            // Loop exits after exactly period-1 = 3 taken iterations
            // (modulo the truncated first/last run).
            const int run = run_length[rec.pc];
            EXPECT_LE(run, 3);
            run_length[rec.pc] = 0;
        }
    }
}

TEST(SyntheticTrace, CountSitesByKind)
{
    ProfileParams p = tinyProfile();
    p.numFunctions = 64;
    p.fracAlways = 1.0;
    p.fracLoop = 0.0;
    p.fracPattern = 0.0;
    p.fracBiased = 0.0;
    p.fracMarkov = 0.0;
    p.fracCorrelated = 0.0;
    SyntheticTrace t(p, 1);
    EXPECT_EQ(t.countSites(BehaviorKind::Always), t.numSites());
    EXPECT_EQ(t.countSites(BehaviorKind::Loop), 0u);
}

TEST(SyntheticTrace, LastKindTracksEmittedSite)
{
    ProfileParams p = tinyProfile();
    p.fracAlways = 1.0;
    p.fracLoop = 0.0;
    p.fracPattern = 0.0;
    p.fracBiased = 0.0;
    p.fracMarkov = 0.0;
    p.fracCorrelated = 0.0;
    SyntheticTrace t(p, 100);
    BranchRecord rec;
    while (t.next(rec)) {
        EXPECT_EQ(t.lastKind(), BehaviorKind::Always);
        EXPECT_FALSE(t.lastInBody());
    }
}

TEST(SyntheticTrace, PhasesChangeWorkingSet)
{
    ProfileParams p = tinyProfile();
    p.numFunctions = 60;
    p.hotFraction = 0.1;
    p.numPhases = 3;
    p.phaseLength = 3000;
    p.zipfSkew = 0.3;
    p.callLocality = 0.0; // pure Zipf draws make the set visible
    SyntheticTrace t(p, 9000);

    BranchRecord rec;
    std::set<uint64_t> phase_pcs[3];
    for (int phase = 0; phase < 3; ++phase) {
        for (int i = 0; i < 3000; ++i) {
            ASSERT_TRUE(t.next(rec));
            phase_pcs[phase].insert(rec.pc);
        }
    }
    // Cold working sets rotate: each phase must touch PCs the other
    // phases never touch.
    for (int a = 0; a < 3; ++a) {
        const int b = (a + 1) % 3;
        size_t only_a = 0;
        for (const auto pc : phase_pcs[a]) {
            if (phase_pcs[b].count(pc) == 0)
                ++only_a;
        }
        EXPECT_GT(only_a, 0u) << "phase " << a << " vs " << b;
    }
}

TEST(SyntheticTrace, ValidationRejectsBadProfiles)
{
    ProfileParams bad = tinyProfile();
    bad.numFunctions = 0;
    EXPECT_DEATH(SyntheticTrace(bad, 10), "numFunctions");

    ProfileParams bad2 = tinyProfile();
    bad2.fracAlways = 0.0;
    bad2.fracLoop = 0.0;
    bad2.fracPattern = 0.0;
    bad2.fracBiased = 0.0;
    bad2.fracMarkov = 0.0;
    bad2.fracCorrelated = 0.0;
    EXPECT_DEATH(SyntheticTrace(bad2, 10), "mixture");

    ProfileParams bad3 = tinyProfile();
    bad3.loopPeriodMin = 10;
    bad3.loopPeriodMax = 5;
    EXPECT_DEATH(SyntheticTrace(bad3, 10), "loopPeriod");
}

TEST(SyntheticTrace, ValidationCapsPatternLengthAndTapCount)
{
    ProfileParams long_pattern = tinyProfile();
    long_pattern.patternLenMax = BranchBehavior::kMaxPatternLen + 1;
    EXPECT_DEATH(SyntheticTrace(long_pattern, 10), "patternLenMax");

    ProfileParams many_taps = tinyProfile();
    many_taps.corrNumTapsMax =
        static_cast<int>(BranchBehavior::kMaxTaps) + 1;
    EXPECT_DEATH(SyntheticTrace(many_taps, 10), "corrNumTapsMax");

    // Exactly at both caps is a valid profile.
    ProfileParams at_caps = tinyProfile();
    at_caps.patternLenMin = BranchBehavior::kMaxPatternLen;
    at_caps.patternLenMax = BranchBehavior::kMaxPatternLen;
    at_caps.corrNumTapsMin = static_cast<int>(BranchBehavior::kMaxTaps);
    at_caps.corrNumTapsMax = static_cast<int>(BranchBehavior::kMaxTaps);
    at_caps.fracCorrelated = 0.5;
    SyntheticTrace t(at_caps, 5000);
    EXPECT_GT(t.countSites(BehaviorKind::Correlated), 0u);
    BranchRecord rec;
    uint64_t n = 0;
    while (t.next(rec))
        ++n;
    EXPECT_EQ(n, 5000u);
}

TEST(SyntheticTrace, BehaviorsHoldTheirCapsInline)
{
    XorShift128Plus rng(5);
    GlobalHistory history(16);
    BehaviorContext ctx{rng, history};

    std::vector<bool> outcomes(BranchBehavior::kMaxPatternLen);
    for (size_t i = 0; i < outcomes.size(); ++i)
        outcomes[i] = (i * 7 + 3) % 5 < 2;
    BranchBehavior pattern = BranchBehavior::pattern(outcomes);
    for (int rep = 0; rep < 3; ++rep) {
        for (size_t i = 0; i < outcomes.size(); ++i)
            ASSERT_EQ(pattern.nextOutcome(ctx), outcomes[i]) << i;
    }

    const std::vector<uint16_t> taps = {1, 2, 5, 9};
    BranchBehavior corr = BranchBehavior::correlated(taps, true, 0.0);
    EXPECT_EQ(corr.maxHistoryTap(), 9);
    XorShift128Plus stream(3);
    for (int i = 0; i < 200; ++i) {
        const bool parity = ((history[1] ^ history[2] ^ history[5] ^
                              history[9]) & 1) != 0;
        ASSERT_EQ(corr.nextOutcome(ctx), !parity) << i;
        history.push(stream.nextBool(0.5));
    }
}

TEST(SyntheticTrace, OpeningAProfileMakesFewHeapAllocations)
{
    const std::vector<std::string> names = allTraceNames();
    for (const std::string& name : names) {
        const uint64_t before = gAllocations.load();
        {
            SyntheticTrace t = makeTrace(name, 512);
            EXPECT_GT(t.numSites(), 0u);
        }
        EXPECT_LE(gAllocations.load() - before, 32u) << name;
    }
}

/** A source that keeps TraceSource's default, next()-based fill(). */
class NextOnlyTrace : public TraceSource
{
  public:
    explicit NextOnlyTrace(std::unique_ptr<TraceSource> inner)
        : inner_(std::move(inner))
    {
    }

    bool
    next(BranchRecord& out) override
    {
        ++nextCalls;
        return inner_->next(out);
    }

    void reset() override { inner_->reset(); }
    std::string name() const override { return inner_->name(); }

    uint64_t nextCalls = 0;

  private:
    std::unique_ptr<TraceSource> inner_;
};

using SourceFactory = std::function<std::unique_ptr<TraceSource>()>;

/** Trace-specific state that must also agree after every call. */
using StateCheck =
    std::function<void(const TraceSource& by_next, const TraceSource& by_fill)>;

void
expectSameRecord(const BranchRecord& a, const BranchRecord& b)
{
    ASSERT_EQ(a.pc, b.pc);
    ASSERT_EQ(a.taken, b.taken);
    ASSERT_EQ(a.instructionsBefore, b.instructionsBefore);
}

/**
 * Drive two sources from @p make side by side: one only through next(),
 * the other through fill() chunks of @p chunk, each followed by a single
 * next() call, with one reset() of both part-way. Every record, the
 * short count at the end, lastError() and @p check must agree.
 */
void
expectFillMatchesNext(const SourceFactory& make, size_t chunk,
                      const StateCheck& check)
{
    const std::unique_ptr<TraceSource> by_next = make();
    const std::unique_ptr<TraceSource> by_fill = make();
    std::vector<BranchRecord> buf(chunk);
    BranchRecord want;
    BranchRecord got;
    uint64_t delivered = 0;
    bool was_reset = false;
    for (;;) {
        const size_t n = by_fill->fill(buf);
        ASSERT_LE(n, chunk);
        for (size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(by_next->next(want)) << "record " << delivered;
            expectSameRecord(want, buf[i]);
            ++delivered;
        }
        check(*by_next, *by_fill);
        if (n < chunk) {
            // A short count: next() is exhausted at the same place.
            EXPECT_FALSE(by_next->next(want));
            EXPECT_EQ(by_fill->fill(buf), 0u);
            EXPECT_EQ(by_next->lastError(), nullptr);
            EXPECT_EQ(by_fill->lastError(), nullptr);
            break;
        }
        const bool more = by_next->next(want);
        ASSERT_EQ(by_fill->next(got), more);
        if (!more)
            break;
        expectSameRecord(want, got);
        check(*by_next, *by_fill);
        ++delivered;
        if (!was_reset && delivered > 2000) {
            by_next->reset();
            by_fill->reset();
            was_reset = true;
        }
    }
    EXPECT_TRUE(was_reset);
}

constexpr size_t kChunkSizes[] = {1, 7, 64, 333, 512};

/** A small phased program: several phase edges inside one run. */
ProfileParams
phasedProfile()
{
    ProfileParams p = tinyProfile();
    p.numFunctions = 24;
    p.numPhases = 3;
    p.phaseLength = 700;
    p.phasedSiteFraction = 0.3;
    return p;
}

TEST(TraceFill, SyntheticFillEqualsRepeatedNext)
{
    const SourceFactory make = [] {
        return std::make_unique<SyntheticTrace>(phasedProfile(), 6000);
    };
    const StateCheck same_last = [](const TraceSource& a,
                                    const TraceSource& b) {
        const auto& x = static_cast<const SyntheticTrace&>(a);
        const auto& y = static_cast<const SyntheticTrace&>(b);
        EXPECT_EQ(x.lastKind(), y.lastKind());
        EXPECT_EQ(x.lastInBody(), y.lastInBody());
    };
    for (const size_t chunk : kChunkSizes) {
        SCOPED_TRACE(chunk);
        expectFillMatchesNext(make, chunk, same_last);
    }
}

TEST(TraceFill, VectorAndLimitedFillEqualRepeatedNext)
{
    // Both keep the default fill(); the limited source ends at its
    // limit, below the wrapped source's length.
    SyntheticTrace src(phasedProfile(), 4000);
    const VectorTrace records = materialize(src, 4000);
    const StateCheck none = [](const TraceSource&, const TraceSource&) {};
    const SourceFactory vector = [&records] {
        return std::make_unique<VectorTrace>(records);
    };
    const SourceFactory limited = [&records] {
        return std::make_unique<LimitedTrace>(
            std::make_unique<VectorTrace>(records), 3100);
    };
    for (const size_t chunk : kChunkSizes) {
        SCOPED_TRACE(chunk);
        expectFillMatchesNext(vector, chunk, none);
        expectFillMatchesNext(limited, chunk, none);
    }
}

TEST(TraceFill, DefaultFillCallsNextOncePerRecordPlusTheEnd)
{
    std::vector<BranchRecord> recs(10);
    for (size_t i = 0; i < recs.size(); ++i)
        recs[i] = {0x100 + 4 * i, i % 3 == 0, static_cast<uint32_t>(i)};
    NextOnlyTrace t(std::make_unique<VectorTrace>("ten", recs));
    std::vector<BranchRecord> buf(4);
    EXPECT_EQ(t.fill(buf), 4u);
    EXPECT_EQ(t.nextCalls, 4u);
    EXPECT_EQ(buf[3].pc, recs[3].pc);
    EXPECT_EQ(t.fill(buf), 4u);
    EXPECT_EQ(t.fill(buf), 2u); // short: the third next() returned false
    EXPECT_EQ(t.nextCalls, 11u);
    EXPECT_EQ(buf[1].instructionsBefore, 9u);
    EXPECT_EQ(t.fill(std::span<BranchRecord>()), 0u);
    EXPECT_EQ(t.nextCalls, 11u);
}

TEST(Materialize, DrainsIntoVectorTrace)
{
    SyntheticTrace t(tinyProfile(), 500);
    VectorTrace v = materialize(t, 200);
    EXPECT_EQ(v.size(), 200u);
    EXPECT_EQ(v.name(), "tiny");
    // Source continues from where materialize stopped.
    BranchRecord rec;
    uint64_t remaining = 0;
    while (t.next(rec))
        ++remaining;
    EXPECT_EQ(remaining, 300u);
}

TEST(VectorTrace, ResetRestarts)
{
    std::vector<BranchRecord> recs = {{0x10, true, 3}, {0x20, false, 4}};
    VectorTrace v("two", recs);
    BranchRecord rec;
    EXPECT_TRUE(v.next(rec));
    EXPECT_TRUE(v.next(rec));
    EXPECT_FALSE(v.next(rec));
    v.reset();
    EXPECT_TRUE(v.next(rec));
    EXPECT_EQ(rec.pc, 0x10u);
}

} // namespace
} // namespace tagecon
