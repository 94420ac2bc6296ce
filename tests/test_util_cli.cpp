/**
 * @file
 * Unit tests for the command-line flag parser.
 */

#include <gtest/gtest.h>

#include "util/cli.hpp"

namespace tagecon {
namespace {

CliArgs
parse(std::initializer_list<const char*> argv)
{
    std::vector<const char*> v{"prog"};
    v.insert(v.end(), argv.begin(), argv.end());
    return CliArgs(static_cast<int>(v.size()), v.data());
}

TEST(Cli, EqualsForm)
{
    const CliArgs a = parse({"--branches=1000", "--name=FP-1"});
    EXPECT_EQ(a.getUint("branches", 0), 1000u);
    EXPECT_EQ(a.getString("name", ""), "FP-1");
}

TEST(Cli, SpaceForm)
{
    const CliArgs a = parse({"--branches", "500"});
    EXPECT_EQ(a.getUint("branches", 0), 500u);
}

TEST(Cli, BooleanFlags)
{
    const CliArgs a = parse({"--csv", "--modified=true", "--quiet=false"});
    EXPECT_TRUE(a.getBool("csv", false));
    EXPECT_TRUE(a.getBool("modified", false));
    EXPECT_FALSE(a.getBool("quiet", true));
    EXPECT_TRUE(a.getBool("absent", true));
    EXPECT_FALSE(a.getBool("absent", false));
}

TEST(Cli, DefaultsWhenAbsent)
{
    const CliArgs a = parse({});
    EXPECT_EQ(a.getInt("x", -7), -7);
    EXPECT_EQ(a.getUint("y", 9), 9u);
    EXPECT_EQ(a.getDouble("z", 1.5), 1.5);
    EXPECT_EQ(a.getString("s", "dflt"), "dflt");
    EXPECT_FALSE(a.has("x"));
}

TEST(Cli, NegativeAndHexIntegers)
{
    const CliArgs a = parse({"--neg=-12", "--hex=0x10"});
    EXPECT_EQ(a.getInt("neg", 0), -12);
    EXPECT_EQ(a.getInt("hex", 0), 16);
}

TEST(Cli, Doubles)
{
    const CliArgs a = parse({"--p=0.125"});
    EXPECT_DOUBLE_EQ(a.getDouble("p", 0.0), 0.125);
}

TEST(Cli, Positional)
{
    const CliArgs a = parse({"trace1", "--flag", "trace2"});
    // "--flag trace2": trace2 is consumed as flag's value.
    ASSERT_EQ(a.positional().size(), 1u);
    EXPECT_EQ(a.positional()[0], "trace1");
    EXPECT_EQ(a.getString("flag", ""), "trace2");
}

TEST(Cli, FlagNamesEnumerated)
{
    const CliArgs a = parse({"--b=1", "--a=2"});
    const auto names = a.flagNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a"); // map order: sorted
    EXPECT_EQ(names[1], "b");
}

TEST(Cli, RejectUnknownFlagsNamesTheFlagAndTheKnownList)
{
    const CliArgs a = parse({"--seed=3", "--branch=2000", "--csv"});
    // The known list prints in the caller's order, not sorted.
    EXPECT_EXIT(a.rejectUnknownFlags({"seed", "csv", "branches"}),
                ::testing::ExitedWithCode(1),
                "unknown flag --branch \\(known: --seed --csv "
                "--branches\\)");
    a.rejectUnknownFlags({"seed", "csv", "branch"}); // all known
    parse({}).rejectUnknownFlags({});
}

TEST(Cli, UintListParsesEveryItem)
{
    const CliArgs a = parse({"--jobs=1,0,,1024"});
    EXPECT_EQ(a.getUintListInRange("jobs", {7}, 0, 1024),
              (std::vector<uint64_t>{1, 0, 1024}));
    EXPECT_EQ(a.getUintListInRange("absent", {1, 0}, 0, 1024),
              (std::vector<uint64_t>{1, 0}));
}

TEST(Cli, UintListItemsAreStrictAndRangeChecked)
{
    // Each item is parsed like one getUintInRange() value: junk,
    // trailing garbage and a sign are fatal rather than truncated or
    // wrapped, and the error names the flag.
    for (const char* bad :
         {"--jobs=abc", "--jobs=1x", "--jobs=-1", "--jobs=2,-1"}) {
        const CliArgs a = parse({bad});
        EXPECT_EXIT(a.getUintListInRange("jobs", {1}, 0, 1024),
                    ::testing::ExitedWithCode(1),
                    "flag --jobs expects an unsigned integer")
            << bad;
    }
    const CliArgs a = parse({"--jobs=1,1025"});
    EXPECT_EXIT(a.getUintListInRange("jobs", {1}, 0, 1024),
                ::testing::ExitedWithCode(1),
                "flag --jobs expects a value between 0 and 1024, got 1025");
}

TEST(Cli, MalformedIntegerIsFatal)
{
    const CliArgs a = parse({"--n=abc"});
    EXPECT_EXIT(a.getInt("n", 0), ::testing::ExitedWithCode(1),
                "expects an integer");
}

TEST(Cli, MalformedBoolIsFatal)
{
    const CliArgs a = parse({"--b=maybe"});
    EXPECT_EXIT(a.getBool("b", false), ::testing::ExitedWithCode(1),
                "expects a boolean");
}

TEST(Cli, ScientificNotationIsNotAnInteger)
{
    // "1e6" must not silently parse as 1; the error names the flag.
    const CliArgs a = parse({"--branches=1e6"});
    EXPECT_EXIT(a.getUint("branches", 0), ::testing::ExitedWithCode(1),
                "flag --branches expects an unsigned integer");
    EXPECT_EXIT(a.getInt("branches", 0), ::testing::ExitedWithCode(1),
                "flag --branches expects an integer");
}

TEST(Cli, TrailingGarbageIsFatal)
{
    const CliArgs a = parse({"--n=7x", "--d=1.5z"});
    EXPECT_EXIT(a.getUint("n", 0), ::testing::ExitedWithCode(1),
                "trailing garbage");
    EXPECT_EXIT(a.getDouble("d", 0.0), ::testing::ExitedWithCode(1),
                "trailing garbage");
}

TEST(Cli, NegativeUnsignedDoesNotWrapAround)
{
    // strtoull would wrap "-1" to 2^64-1; getUint must reject it.
    const CliArgs a = parse({"--branches=-1"});
    EXPECT_EXIT(a.getUint("branches", 0), ::testing::ExitedWithCode(1),
                "flag --branches expects an unsigned integer");
}

TEST(Cli, OutOfRangeMagnitudesAreFatal)
{
    const CliArgs a = parse({"--n=99999999999999999999999999"});
    EXPECT_EXIT(a.getUint("n", 0), ::testing::ExitedWithCode(1),
                "out of range");
    EXPECT_EXIT(a.getInt("n", 0), ::testing::ExitedWithCode(1),
                "out of range");
}

TEST(Cli, WhitespaceWrappedNumbersAreFatal)
{
    const CliArgs a = parse({"--n= 5"});
    EXPECT_EXIT(a.getUint("n", 0), ::testing::ExitedWithCode(1),
                "whitespace");
}

TEST(Cli, UintInRangeAcceptsBoundsAndDefaults)
{
    const CliArgs a = parse({"--jobs=1024"});
    EXPECT_EQ(a.getUintInRange("jobs", 1, 1, 1024), 1024u);
    // Absent flag falls back to the default (still range-checked).
    EXPECT_EQ(a.getUintInRange("other", 7, 1, 1024), 7u);
}

TEST(Cli, UintInRangeRejectsZeroNamingTheFlag)
{
    // The tagecon_sweep --jobs=0 regression: 0 used to flow straight
    // into the thread-pool size.
    const CliArgs a = parse({"--jobs=0"});
    EXPECT_EXIT(a.getUintInRange("jobs", 1, 1, 1024),
                ::testing::ExitedWithCode(1),
                "flag --jobs expects a value between 1 and 1024");
}

TEST(Cli, UintInRangeStopsNarrowingWraparound)
{
    // 2^32 would wrap to 0 through a static_cast<unsigned>; the range
    // check runs on the full 64-bit value first.
    const CliArgs a = parse({"--jobs=4294967296"});
    EXPECT_EXIT(a.getUintInRange("jobs", 1, 1, 1024),
                ::testing::ExitedWithCode(1),
                "between 1 and 1024");
}

} // namespace
} // namespace tagecon
