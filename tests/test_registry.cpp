/**
 * @file
 * Tests for the string-spec predictor registry: spec round-trips,
 * construction of every family, and the error paths for unknown names
 * and invalid combinations.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sim/registry.hpp"
#include "tage/tage_config.hpp"
#include "tage/tage_predictor.hpp"

namespace tagecon {
namespace {

TEST(Registry, EverySpecRoundTrips)
{
    for (const auto& spec : exampleSpecs()) {
        std::string error;
        auto p = tryMakePredictor(spec, &error);
        ASSERT_NE(p, nullptr) << spec << ": " << error;

        // name() is the canonical spec and parses back to itself.
        EXPECT_EQ(p->name(), canonicalizeSpec(spec)) << spec;
        auto again = tryMakePredictor(p->name(), &error);
        ASSERT_NE(again, nullptr) << p->name() << ": " << error;
        EXPECT_EQ(again->name(), p->name());
    }
}

TEST(Registry, AllSixFamiliesRunThroughGenericLoop)
{
    const std::vector<std::string> families = {
        "tage64k+sfc",  "ltage64k+sfc",    "gshare+jrs",
        "bimodal+sfc",  "perceptron+sfc",  "ogehl+sfc",
    };
    for (const auto& spec : families) {
        auto p = makePredictor(spec);
        SyntheticTrace trace = makeTrace("INT-1", 5000);
        const RunResult r = runTrace(trace, *p);
        EXPECT_EQ(r.stats.totalPredictions(), 5000u) << spec;
        EXPECT_EQ(r.confusion.total(), 5000u) << spec;
        EXPECT_EQ(r.configName, canonicalizeSpec(spec)) << spec;
        EXPECT_GT(r.storageBits, 0u) << spec;
        // Every family must beat "always mispredict" on this profile.
        EXPECT_LT(r.stats.totalMispredictions(), 2500u) << spec;
    }
}

TEST(Registry, RegisteredBasesAreConstructibleBare)
{
    for (const auto& base : registeredBases()) {
        std::string error;
        auto p = tryMakePredictor(base, &error);
        ASSERT_NE(p, nullptr) << base << ": " << error;
        EXPECT_EQ(p->name(), base);
    }
}

TEST(Registry, UnknownBaseFails)
{
    std::string error;
    EXPECT_EQ(tryMakePredictor("neural-net-9000", &error), nullptr);
    EXPECT_NE(error.find("unknown predictor base"), std::string::npos)
        << error;
}

TEST(Registry, UnknownTokenFails)
{
    std::string error;
    EXPECT_EQ(tryMakePredictor("tage64k+turbo", &error), nullptr);
    EXPECT_NE(error.find("unknown token"), std::string::npos) << error;
}

TEST(Registry, AdaptiveWithoutProbabilisticSaturationFails)
{
    std::string error;
    EXPECT_EQ(tryMakePredictor("tage64k+adaptive+sfc", &error), nullptr);
    EXPECT_NE(error.find("probabilisticSaturation"), std::string::npos)
        << error;
}

TEST(Registry, AdaptiveWithProbSucceeds)
{
    auto p = makePredictor("tage64k+prob7+adaptive+sfc");
    EXPECT_EQ(p->name(), "tage64k+prob7+adaptive+sfc");
    EXPECT_EQ(p->satLog2Prob(), 7u);
}

TEST(Registry, SfcOnConfidenceBlindHostFails)
{
    std::string error;
    EXPECT_EQ(tryMakePredictor("gshare+sfc", &error), nullptr);
    EXPECT_NE(error.find("intrinsic"), std::string::npos) << error;
}

TEST(Registry, TageModifiersRejectedOnBaselines)
{
    std::string error;
    EXPECT_EQ(tryMakePredictor("gshare+prob7+jrs", &error), nullptr);
    EXPECT_NE(error.find("tage family"), std::string::npos) << error;
    EXPECT_EQ(tryMakePredictor("perceptron+adaptive", &error), nullptr);
}

TEST(Registry, AtMostOneEstimator)
{
    std::string error;
    EXPECT_EQ(tryMakePredictor("tage64k+sfc+jrs", &error), nullptr);
    EXPECT_NE(error.find("more than one estimator"), std::string::npos)
        << error;
}

TEST(Registry, RepeatedModifiersFail)
{
    // A second prob must not silently replace the first one's p.
    std::string error;
    EXPECT_EQ(tryMakePredictor("tage64k+prob+prob3+sfc", &error),
              nullptr);
    EXPECT_NE(error.find("more than one prob modifier"),
              std::string::npos)
        << error;
    EXPECT_EQ(canonicalizeSpec("tage64k+prob7+prob7+sfc", &error), "");
    EXPECT_EQ(tryMakePredictor("tage64k+prob7+adaptive+adaptive+sfc",
                               &error),
              nullptr);
    EXPECT_NE(error.find("more than one adaptive modifier"),
              std::string::npos)
        << error;
}

/** snapshot() bytes, empty for a family without checkpoint support. */
std::vector<uint8_t>
snapshotBytes(const GradedPredictor& p, bool& supported)
{
    StateWriter w;
    std::string error;
    supported = p.snapshot(w, error);
    return w.take();
}

TEST(Registry, SfcIsTheHostItself)
{
    // The storage-free grade is the host's own: "+sfc" adds no wrapper,
    // no storage and no state, on TAGE, L-TAGE and a baseline alike.
    for (const std::string host_spec :
         {"tage64k+prob7", "ltage16k", "perceptron"}) {
        SCOPED_TRACE(host_spec);
        auto host = makePredictor(host_spec);
        auto sfc = makePredictor(host_spec + "+sfc");
        EXPECT_EQ(dynamic_cast<const EstimatedPredictor*>(sfc.get()),
                  nullptr);
        EXPECT_EQ(sfc->name(), host_spec + "+sfc");
        EXPECT_EQ(sfc->storageBits(), host->storageBits());

        SyntheticTrace trace = makeTrace("MM-2", 5000);
        BranchRecord rec;
        while (trace.next(rec)) {
            const Prediction a = host->predict(rec.pc);
            const Prediction b = sfc->predict(rec.pc);
            ASSERT_EQ(a, b);
            host->update(rec.pc, a, rec.taken);
            sfc->update(rec.pc, b, rec.taken);
        }
        bool host_ok = false;
        bool sfc_ok = false;
        EXPECT_TRUE(snapshotBytes(*host, host_ok) ==
                    snapshotBytes(*sfc, sfc_ok));
        EXPECT_EQ(host_ok, sfc_ok);
    }
}

TEST(Registry, SpecsAreCaseInsensitiveAndCanonicallyOrdered)
{
    auto p = makePredictor("TAGE64K+SFC+Prob7");
    EXPECT_EQ(p->name(), "tage64k+prob7+sfc");
}

TEST(Registry, SelfIsAnAliasForSfc)
{
    auto p = makePredictor("ogehl+self");
    EXPECT_EQ(p->name(), "ogehl+sfc");
}

TEST(Registry, ProbModifierSetsLog2)
{
    auto p = makePredictor("tage16k+prob5+sfc");
    EXPECT_EQ(p->satLog2Prob(), 5u);
    std::string error;
    EXPECT_EQ(tryMakePredictor("tage16k+prob99+sfc", &error), nullptr);
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
    EXPECT_EQ(tryMakePredictor("tage16k+probx+sfc", &error), nullptr);
}

TEST(Registry, MalformedSpecsFail)
{
    std::string error;
    EXPECT_EQ(tryMakePredictor("", &error), nullptr);
    EXPECT_EQ(tryMakePredictor("tage64k++sfc", &error), nullptr);
    EXPECT_NE(error.find("empty token"), std::string::npos) << error;
}

TEST(Registry, MakePredictorPanicsOnBadSpec)
{
    // makePredictor() is for specs the program supplies; a user's spec
    // goes through tryMakePredictor().
    EXPECT_DEATH(makePredictor("no-such-predictor"),
                 "unknown predictor base");
}

TEST(Registry, JrsDecorationAddsStorage)
{
    const uint64_t bare = makePredictor("gshare")->storageBits();
    const uint64_t jrs = makePredictor("gshare+jrs")->storageBits();
    EXPECT_GT(jrs, bare);
    // The paper's claim, as an API property: sfc adds zero storage.
    EXPECT_EQ(makePredictor("tage64k+sfc")->storageBits(),
              makePredictor("tage64k")->storageBits());
}

// ------------------------------------------- parameterized specs

TEST(RegistryParams, ParameterizedSpecsRoundTripCanonically)
{
    // Keys are sorted in the canonical form, and name() parses back
    // to the same pipeline.
    auto p = makePredictor("GSHARE:hist=17,entries=16+JRS");
    EXPECT_EQ(p->name(), "gshare:entries=16,hist=17+jrs");
    auto again = makePredictor(p->name());
    EXPECT_EQ(again->name(), p->name());
    EXPECT_EQ(again->storageBits(), p->storageBits());

    EXPECT_EQ(canonicalizeSpec("tage64k:tables=8,ctr=2+prob5+sfc"),
              "tage64k:ctr=2,tables=8+prob5+sfc");
}

TEST(RegistryParams, SemicolonIsAParameterSeparatorAlias)
{
    // ';' lets multi-parameter specs sit inside comma-separated flag
    // lists; the canonical form always uses ','.
    EXPECT_EQ(canonicalizeSpec("tage64k:tables=8;ctr=2+sfc"),
              "tage64k:ctr=2,tables=8+sfc");
}

TEST(RegistryParams, ParametersChangeTheBuiltPredictor)
{
    // gshare: 2^16 entries x 2b = 128 Kbit vs default 64 Kbit.
    EXPECT_EQ(makePredictor("gshare:entries=16")->storageBits(),
              2u * makePredictor("gshare")->storageBits());

    // Defaults spelled explicitly build the identical predictor.
    EXPECT_EQ(makePredictor("tage64k:ctr=3")->storageBits(),
              makePredictor("tage64k")->storageBits());
    EXPECT_EQ(makePredictor("bimodal:entries=15,ctr=2")->storageBits(),
              makePredictor("bimodal")->storageBits());

    // TAGE geometry overrides move the storage in the right direction.
    EXPECT_GT(makePredictor("tage64k:tables=8")->storageBits(),
              makePredictor("tage64k")->storageBits());
    EXPECT_LT(makePredictor("tage64k:logent=8")->storageBits(),
              makePredictor("tage64k")->storageBits());
}

TEST(RegistryParams, LeadingZerosAreDecimalNeverOctal)
{
    // "010" is ten, not octal eight: the logent=10 geometry.
    auto padded = makePredictor("tage64k:logent=010+sfc");
    auto ten = makePredictor("tage64k:logent=10+sfc");
    EXPECT_EQ(padded->tagePredictor()->config().tagged,
              ten->tagePredictor()->config().tagged);
    EXPECT_EQ(padded->tagePredictor()->config().tagged[0].logEntries, 10);
    EXPECT_EQ(padded->storageBits(), ten->storageBits());
}

TEST(RegistryParams, GshareHistoryLongerThanIndexIsHonored)
{
    // hist > entries folds the history into the index rather than
    // silently clamping, so the parameter must change the results.
    auto deflt = makePredictor("gshare+jrs");
    auto longh = makePredictor("gshare:hist=30+jrs");
    EXPECT_EQ(deflt->storageBits(), longh->storageBits());

    SyntheticTrace t1 = makeTrace("INT-1", 8000);
    SyntheticTrace t2 = makeTrace("INT-1", 8000);
    const RunResult r1 = runTrace(t1, *deflt);
    const RunResult r2 = runTrace(t2, *longh);
    EXPECT_NE(r1.stats.totalMispredictions(),
              r2.stats.totalMispredictions());
}

TEST(RegistryParams, ParamErrorsReportedAheadOfModifierErrors)
{
    // The user should learn about the bad parameter first, not chase
    // the modifier problem and re-run into the parameter one.
    std::string error;
    EXPECT_EQ(tryMakePredictor("tage64k:ctr=99+adaptive", &error),
              nullptr);
    EXPECT_NE(error.find("ctr"), std::string::npos) << error;
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST(RegistryParams, UnknownKeysAreRejected)
{
    std::string error;
    EXPECT_EQ(tryMakePredictor("gshare:bogus=1", &error), nullptr);
    EXPECT_NE(error.find("unknown parameter"), std::string::npos)
        << error;
    EXPECT_NE(error.find("bogus"), std::string::npos) << error;

    // TAGE keys are not gshare keys.
    EXPECT_EQ(tryMakePredictor("gshare:tables=4", &error), nullptr);
    EXPECT_NE(error.find("unknown parameter"), std::string::npos)
        << error;
}

TEST(RegistryParams, MalformedParameterListsAreRejected)
{
    std::string error;
    // Missing '=', empty key/value, duplicates, empty list.
    EXPECT_EQ(tryMakePredictor("gshare:hist", &error), nullptr);
    EXPECT_NE(error.find("not key=value"), std::string::npos) << error;
    EXPECT_EQ(tryMakePredictor("gshare:hist=", &error), nullptr);
    EXPECT_EQ(tryMakePredictor("gshare:=17", &error), nullptr);
    EXPECT_EQ(tryMakePredictor("gshare:hist=1,hist=2", &error),
              nullptr);
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
    EXPECT_EQ(tryMakePredictor("gshare:", &error), nullptr);
    // A typo-truncated list must not silently narrow the sweep.
    EXPECT_EQ(tryMakePredictor("gshare:hist=9,", &error), nullptr);
    EXPECT_NE(error.find("trailing"), std::string::npos) << error;
    EXPECT_EQ(tryMakePredictor("gshare:hist=9;", &error), nullptr);
}

TEST(RegistryParams, MalformedValuesAreRejected)
{
    std::string error;
    EXPECT_EQ(tryMakePredictor("gshare:hist=abc", &error), nullptr);
    EXPECT_NE(error.find("hist"), std::string::npos) << error;
    EXPECT_EQ(tryMakePredictor("gshare:hist=1e6", &error), nullptr);
    EXPECT_EQ(tryMakePredictor("gshare:hist=-3", &error), nullptr);
    // Out of the key's documented range.
    EXPECT_EQ(tryMakePredictor("gshare:entries=99", &error), nullptr);
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST(RegistryParams, ParametersOnlyAttachToTheBase)
{
    std::string error;
    EXPECT_EQ(tryMakePredictor("tage64k+sfc:window=3", &error),
              nullptr);
    EXPECT_NE(error.find("only attach to the base"), std::string::npos)
        << error;
}

TEST(RegistryParams, TageGeometryCrossChecksAreErrorsNotFatals)
{
    // 12 tables cannot fit strictly-increasing histories in 5..10.
    std::string error;
    EXPECT_EQ(
        tryMakePredictor("tage64k:tables=12,maxhist=10", &error),
        nullptr);
    EXPECT_NE(error.find("maxhist"), std::string::npos) << error;

    EXPECT_EQ(tryMakePredictor("ogehl:minhist=50,maxhist=10", &error),
              nullptr);
    EXPECT_NE(error.find("maxhist"), std::string::npos) << error;

    // A span too tight for the table count must be rejected up front,
    // not overflow the history buffer mid-run (T1..T_{M-1} need
    // numTables-1 strictly-increasing lengths capped at maxhist).
    EXPECT_EQ(tryMakePredictor("ogehl:minhist=1,maxhist=2,tables=16",
                               &error),
              nullptr);
    EXPECT_NE(error.find("too short"), std::string::npos) << error;
    // The widest span that fits 16 tables still constructs and runs.
    auto p = makePredictor("ogehl:minhist=1,maxhist=15,tables=16+sfc");
    SyntheticTrace trace = makeTrace("FP-1", 2000);
    EXPECT_EQ(runTrace(trace, *p).stats.totalPredictions(), 2000u);
}

TEST(RegistryParams, CrossKeyChecksAreTageConfigsOwn)
{
    // The registry forwards TageConfig's verdicts instead of keeping
    // copies of its checks.
    std::string error;
    EXPECT_EQ(tryMakePredictor("tage64k:ctr=5,ubits=4+sfc", &error),
              nullptr);
    TageConfig packed = TageConfig::medium64K();
    packed.taggedCtrBits = 5;
    packed.usefulBits = 4;
    EXPECT_EQ(error, packed.validate().detail);

    EXPECT_EQ(tryMakePredictor("tage64k:tables=12,maxhist=10+sfc", &error),
              nullptr);
    EXPECT_EQ(error, TageConfig::checkHistorySpan(5, 10, 12).detail);
    EXPECT_EQ(tryMakePredictor("ogehl:minhist=1,maxhist=2,tables=16+sfc",
                               &error),
              nullptr);
    EXPECT_EQ(error, TageConfig::checkHistorySpan(1, 2, 15).detail);
}

TEST(RegistryParams, RegroupSpecListRejoinsCommaSplitParams)
{
    // What a comma-split of "gshare:entries=16,hist=17+jrs,tage64k"
    // produces — the continuation is provably not a spec start.
    const std::vector<std::string> split = {"gshare:entries=16",
                                            "hist=17+jrs", "tage64k"};
    const auto specs = regroupSpecList(split);
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0], "gshare:entries=16,hist=17+jrs");
    EXPECT_EQ(specs[1], "tage64k");

    // Canonical names therefore paste back into spec lists verbatim.
    const std::string name =
        makePredictor("gshare:hist=17,entries=16+jrs")->name();
    const auto round =
        regroupSpecList({"gshare:entries=16", "hist=17+jrs"});
    ASSERT_EQ(round.size(), 1u);
    EXPECT_EQ(canonicalizeSpec(round[0]), name);

    // Lists without parameters pass through untouched.
    const auto plain = regroupSpecList({"tage64k+sfc", "gshare+jrs"});
    ASSERT_EQ(plain.size(), 2u);
}

TEST(RegistryParams, ParameterizedTageStillTakesModifiersAndSfc)
{
    auto p = makePredictor("tage16k:tables=3,maxhist=40+prob5+sfc");
    EXPECT_EQ(p->name(), "tage16k:maxhist=40,tables=3+prob5+sfc");
    EXPECT_EQ(p->satLog2Prob(), 5u);
    SyntheticTrace trace = makeTrace("INT-1", 3000);
    const RunResult r = runTrace(trace, *p);
    EXPECT_EQ(r.stats.totalPredictions(), 3000u);
}

} // namespace
} // namespace tagecon
