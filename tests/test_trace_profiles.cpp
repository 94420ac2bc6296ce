/**
 * @file
 * Tests for the 40 named CBP-1/CBP-2 stand-in profiles.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <set>

#include "trace/profiles.hpp"

namespace tagecon {
namespace {

TEST(Profiles, TwentyTracesPerSet)
{
    EXPECT_EQ(traceNames(BenchmarkSet::Cbp1).size(), 20u);
    EXPECT_EQ(traceNames(BenchmarkSet::Cbp2).size(), 20u);
    EXPECT_EQ(allTraceNames().size(), 40u);
}

TEST(Profiles, SetNames)
{
    EXPECT_EQ(benchmarkSetName(BenchmarkSet::Cbp1), "CBP1");
    EXPECT_EQ(benchmarkSetName(BenchmarkSet::Cbp2), "CBP2");
}

TEST(Profiles, AllNamesAreUnique)
{
    const auto names = allTraceNames();
    const std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size());
}

TEST(Profiles, EveryNameResolves)
{
    for (const auto& name : allTraceNames()) {
        const ProfileParams p = profileByName(name);
        EXPECT_EQ(p.name, name);
        EXPECT_NE(p.seed, 0u);
        EXPECT_GE(p.numFunctions, 1);
    }
}

TEST(Profiles, SeedsAreDistinct)
{
    std::set<uint64_t> seeds;
    for (const auto& name : allTraceNames())
        seeds.insert(profileByName(name).seed);
    EXPECT_EQ(seeds.size(), allTraceNames().size());
}

TEST(Profiles, UnknownNamePanics)
{
    EXPECT_DEATH(profileByName("no-such-trace"), "unknown trace profile");
}

TEST(Profiles, MakeTraceProducesRequestedLength)
{
    SyntheticTrace t = makeTrace("FP-1", 1000);
    EXPECT_EQ(t.totalRecords(), 1000u);
    EXPECT_EQ(t.name(), "FP-1");
    BranchRecord rec;
    uint64_t n = 0;
    while (t.next(rec))
        ++n;
    EXPECT_EQ(n, 1000u);
}

TEST(Profiles, SeedSaltChangesStream)
{
    SyntheticTrace a = makeTrace("INT-1", 2000, 0);
    SyntheticTrace b = makeTrace("INT-1", 2000, 1);
    BranchRecord ra;
    BranchRecord rb;
    int diff = 0;
    while (a.next(ra) && b.next(rb)) {
        if (ra.taken != rb.taken || ra.pc != rb.pc)
            ++diff;
    }
    EXPECT_GT(diff, 50);
}

TEST(Profiles, ServTracesHaveLargestFootprint)
{
    // The SERV profiles model server workloads with very large branch
    // footprints (the paper's capacity-pressure traces).
    const int serv = profileByName("SERV-2").numFunctions;
    const int fp = profileByName("FP-1").numFunctions;
    const int mm = profileByName("MM-3").numFunctions;
    EXPECT_GT(serv, 4 * fp);
    EXPECT_GT(serv, 2 * mm);
}

TEST(Profiles, HardTracesCarryMoreRandomness)
{
    // twolf is the paper's canonical hard trace; eon is near-perfectly
    // predictable.
    const ProfileParams twolf = profileByName("300.twolf");
    const ProfileParams eon = profileByName("252.eon");
    EXPECT_GT(twolf.fracBiased + twolf.fracMarkov,
              3 * (eon.fracBiased + eon.fracMarkov));
}

TEST(Profiles, FpTracesAreBranchSparse)
{
    // FP codes have fewer branches per instruction.
    const ProfileParams fp = profileByName("FP-1");
    const ProfileParams serv = profileByName("SERV-1");
    EXPECT_GT(fp.instrPerBranchMin, serv.instrPerBranchMin);
}

/** Every profile must actually generate without tripping validation. */
class AllProfilesGenerate
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AllProfilesGenerate, ShortStreamIsWellFormed)
{
    SyntheticTrace t = makeTrace(GetParam(), 4000);
    BranchRecord rec;
    uint64_t n = 0;
    uint64_t taken = 0;
    while (t.next(rec)) {
        ++n;
        taken += rec.taken ? 1 : 0;
        ASSERT_GT(rec.pc, 0u);
        ASSERT_GE(rec.instructionsBefore, 1u);
    }
    EXPECT_EQ(n, 4000u);
    // Branch streams are neither all-taken nor all-not-taken.
    EXPECT_GT(taken, n / 20);
    EXPECT_LT(taken, n - n / 20);
}

INSTANTIATE_TEST_SUITE_P(
    All, AllProfilesGenerate,
    ::testing::ValuesIn(allTraceNames()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
        std::string name = param_info.param;
        for (char& c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace tagecon
