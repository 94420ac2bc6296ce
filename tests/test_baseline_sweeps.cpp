/**
 * @file
 * Parameterized sweeps over the baseline estimators' configuration
 * spaces: JRS threshold/width trade-offs and O-GEHL geometries.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "baseline/jrs_estimator.hpp"
#include "baseline/ogehl_predictor.hpp"
#include "core/binary_metrics.hpp"
#include "core/confidence_observer.hpp"
#include "sim/experiment.hpp"
#include "tage/tage_predictor.hpp"

namespace tagecon {
namespace {

/** JRS attached to a 16K TAGE over one trace; returns quality. */
BinaryConfidenceMetrics
runJrs(const JrsConfidenceEstimator::Config& jcfg)
{
    TagePredictor predictor(TageConfig::small16K());
    JrsConfidenceEstimator jrs(jcfg);
    BinaryConfidenceMetrics m;
    SyntheticTrace trace = makeTrace("INT-2", 40000);
    BranchRecord rec;
    while (trace.next(rec)) {
        const TagePrediction p = predictor.predict(rec.pc);
        const Prediction graded = binaryPrediction(p.taken, true);
        m.record(jrs.grade(rec.pc, graded) == ConfidenceLevel::High,
                 p.taken == rec.taken);
        jrs.onResolve(rec.pc, graded, rec.taken);
        predictor.update(rec.pc, p, rec.taken);
    }
    return m;
}

class JrsThresholdSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(JrsThresholdSweep, QualityIsWellFormed)
{
    JrsConfidenceEstimator::Config cfg;
    cfg.logEntries = 12;
    cfg.ctrBits = 4;
    cfg.threshold = GetParam();
    const BinaryConfidenceMetrics m = runJrs(cfg);
    EXPECT_GT(m.total(), 0u);
    // All four metrics are probabilities.
    for (const double v : {m.sens(), m.pvp(), m.spec(), m.pvn()}) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
    // Any sane threshold grades most correct predictions high on this
    // mostly-predictable stream.
    if (GetParam() <= 15) {
        EXPECT_GT(m.highCoverage(), 0.3);
    }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, JrsThresholdSweep,
                         ::testing::Values(1u, 3u, 7u, 11u, 15u));

TEST(JrsThresholdTradeoff, HigherThresholdIsMoreSelective)
{
    // Raising the threshold can only shrink high-confidence coverage
    // and raise (or hold) PVP — the classic trade-off.
    double prev_cov = 2.0;
    double prev_pvp = -1.0;
    for (const unsigned th : {1u, 7u, 15u}) {
        JrsConfidenceEstimator::Config cfg;
        cfg.threshold = th;
        const BinaryConfidenceMetrics m = runJrs(cfg);
        EXPECT_LT(m.highCoverage(), prev_cov);
        EXPECT_GE(m.pvp() + 1e-9, prev_pvp);
        prev_cov = m.highCoverage();
        prev_pvp = m.pvp();
    }
}

/** (tables, logEntries, maxHistory) */
using OgehlParam = std::tuple<int, int, int>;

class OgehlGeometrySweep : public ::testing::TestWithParam<OgehlParam>
{
};

TEST_P(OgehlGeometrySweep, LearnsEasyStream)
{
    OgehlPredictor::Config cfg;
    cfg.numTables = std::get<0>(GetParam());
    cfg.logEntries = std::get<1>(GetParam());
    cfg.maxHistory = std::get<2>(GetParam());
    OgehlPredictor p(cfg);

    int late_misses = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const bool taken = i % 8 != 7;
        const Prediction pred = p.predict(0x40);
        if (pred.taken != taken && i > n / 2)
            ++late_misses;
        p.update(0x40, pred, taken);
    }
    EXPECT_LT(late_misses, n / 2 / 20)
        << "tables=" << cfg.numTables << " log=" << cfg.logEntries
        << " hist=" << cfg.maxHistory;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, OgehlGeometrySweep,
    ::testing::Values(std::make_tuple(4, 10, 50),
                      std::make_tuple(6, 10, 100),
                      std::make_tuple(8, 11, 200),
                      std::make_tuple(10, 9, 300),
                      std::make_tuple(12, 8, 120)));

} // namespace
} // namespace tagecon
