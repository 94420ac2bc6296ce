/**
 * @file
 * Parameterized property sweeps across the (predictor configuration x
 * automaton x trace) space: invariants that must hold for every
 * combination, not just the paper's three sizes.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <tuple>

#include "core/confidence_observer.hpp"
#include "sim/experiment.hpp"
#include "tage/graded_tage.hpp"
#include "tage/tage_predictor.hpp"
#include "trace/profiles.hpp"

namespace tagecon {
namespace {

/** Simulate synthetic trace @p name on a fresh GradedTage. */
RunResult
runGraded(const std::string& name, const TageConfig& cfg,
          uint64_t branches, int bim_window = 8)
{
    GradedTageOptions opt;
    opt.bimWindow = bim_window;
    GradedTage predictor(cfg, opt);
    SyntheticTrace trace = makeTrace(name, branches);
    return runTrace(trace, predictor);
}

/** (config index, modified automaton, trace name) */
using SweepParam = std::tuple<int, bool, std::string>;

class ConfigTraceSweep : public ::testing::TestWithParam<SweepParam>
{
  protected:
    TageConfig
    config() const
    {
        const auto& [idx, modified, trace] = GetParam();
        TageConfig cfg =
            TageConfig::paperConfigs()[static_cast<size_t>(idx)];
        if (modified)
            cfg = cfg.withProbabilisticSaturation(7);
        return cfg;
    }

    std::string traceName() const { return std::get<2>(GetParam()); }
};

TEST_P(ConfigTraceSweep, InvariantsHoldOverFullRun)
{
    TagePredictor predictor(config());
    ConfidenceObserver observer;
    SyntheticTrace trace = makeTrace(traceName(), 40000);
    ClassStats stats;

    BranchRecord rec;
    while (trace.next(rec)) {
        const TagePrediction p = predictor.predict(rec.pc);

        // Structural invariants of every single prediction.
        if (p.providerIsTagged) {
            ASSERT_GE(p.providerTable, 1);
            ASSERT_LE(p.providerTable, config().numTaggedTables());
            ASSERT_GE(p.providerStrength, 1);
            ASSERT_LE(p.providerStrength,
                      (1 << config().taggedCtrBits) - 1);
            if (p.altIsTagged) {
                ASSERT_LT(p.altTable, p.providerTable);
            }
        } else {
            ASSERT_EQ(p.providerTable, 0);
            ASSERT_EQ(p.taken, p.bimodalTaken);
        }

        // Classification is total and consistent with the level map.
        const PredictionClass cls = observer.classify(p);
        ASSERT_EQ(confidenceLevel(cls), observer.classifyLevel(p));
        if (!p.providerIsTagged) {
            ASSERT_TRUE(cls == PredictionClass::HighConfBim ||
                        cls == PredictionClass::MediumConfBim ||
                        cls == PredictionClass::LowConfBim);
        } else {
            ASSERT_TRUE(cls == PredictionClass::Stag ||
                        cls == PredictionClass::NStag ||
                        cls == PredictionClass::NWtag ||
                        cls == PredictionClass::Wtag);
        }

        const bool mis = p.taken != rec.taken;
        stats.record(cls, mis, uint64_t{rec.instructionsBefore} + 1);
        observer.onResolve(p, rec.taken);
        predictor.update(rec.pc, p, rec.taken);
    }

    // Aggregate invariants.
    EXPECT_EQ(stats.totalPredictions(), 40000u);
    double pcov_sum = 0.0;
    for (const auto c : kAllPredictionClasses)
        pcov_sum += stats.pcov(c);
    EXPECT_NEAR(pcov_sum, 1.0, 1e-9);

    // The predictor must do much better than a coin on every profile.
    EXPECT_LT(stats.totalMkp(), 250.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConfigTraceSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Bool(),
                       ::testing::Values("FP-2", "INT-2", "MM-5",
                                         "SERV-3", "164.gzip",
                                         "300.twolf")),
    [](const ::testing::TestParamInfo<SweepParam>& param_info) {
        std::string name =
            std::to_string(std::get<0>(param_info.param)) +
            (std::get<1>(param_info.param) ? "_mod_" : "_base_") +
            std::get<2>(param_info.param);
        for (char& c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

/** Custom geometries beyond the paper's sizes must also work. */
class CustomGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(CustomGeometry, BuildsAndRuns)
{
    const auto& [tables, log_entries, max_hist] = GetParam();
    TageConfig cfg;
    cfg.name = "custom";
    cfg.logBimodalEntries = 10;
    const auto lengths =
        TageConfig::geometricHistories(3, max_hist, tables);
    for (int i = 0; i < tables; ++i)
        cfg.tagged.push_back(TageTableConfig{
            log_entries, 9, lengths[static_cast<size_t>(i)]});

    const RunResult r = runGraded("INT-1", cfg, 20000);
    EXPECT_EQ(r.stats.totalPredictions(), 20000u);
    EXPECT_LT(r.stats.totalMkp(), 300.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CustomGeometry,
    ::testing::Values(std::make_tuple(1, 8, 20),
                      std::make_tuple(2, 8, 40),
                      std::make_tuple(3, 10, 60),
                      std::make_tuple(5, 9, 100),
                      std::make_tuple(10, 7, 200),
                      std::make_tuple(12, 6, 350)));

/** The BIM burst window is a tunable; every setting must be sane. */
class WindowSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(WindowSweep, MediumConfBimScalesWithWindow)
{
    const RunResult r =
        runGraded("SERV-2", TageConfig::small16K(), 60000, GetParam());
    if (GetParam() == 0) {
        // Window 0 disables the class entirely.
        EXPECT_EQ(r.stats.predictions(PredictionClass::MediumConfBim),
                  0u);
    } else {
        EXPECT_GT(r.stats.predictions(PredictionClass::MediumConfBim),
                  0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweep,
                         ::testing::Values(0, 1, 4, 8, 16, 64));

TEST(WindowMonotonicity, LargerWindowsNeverShrinkMediumCoverage)
{
    double prev = -1.0;
    for (const int w : {1, 4, 8, 32}) {
        const RunResult r =
            runGraded("SERV-2", TageConfig::small16K(), 60000, w);
        const double cov =
            r.stats.pcov(PredictionClass::MediumConfBim);
        EXPECT_GE(cov, prev) << "window " << w;
        prev = cov;
    }
}

/** Saturation probability sweep: coverage of Stag is monotone in p. */
TEST(ProbabilityMonotonicity, StagCoverageShrinksWithSelectivity)
{
    double prev = 2.0;
    for (const unsigned log2p : {0u, 3u, 6u, 9u}) {
        const RunResult r = runGraded(
            "164.gzip",
            TageConfig::medium64K().withProbabilisticSaturation(log2p),
            80000);
        const double cov = r.stats.pcov(PredictionClass::Stag);
        EXPECT_LE(cov, prev * 1.05) << "log2p " << log2p;
        prev = cov;
    }
}

} // namespace
} // namespace tagecon
