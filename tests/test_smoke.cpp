/**
 * @file
 * End-to-end smoke test: the whole pipeline runs and produces sane
 * numbers on a small trace.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sim/reporting.hpp"
#include "tage/graded_tage.hpp"
#include "trace/profiles.hpp"

namespace tagecon {
namespace {

TEST(Smoke, PipelineRuns)
{
    GradedTage predictor(TageConfig::medium64K());
    SyntheticTrace trace = makeTrace("FP-1", 50000);
    RunResult rr = runTrace(trace, predictor);
    EXPECT_EQ(rr.stats.totalPredictions(), 50000u);
    EXPECT_GT(rr.stats.instructions(), 50000u);
    EXPECT_LT(rr.stats.totalMkp(), 500.0);
    EXPECT_FALSE(summarize(rr).empty());
}

} // namespace
} // namespace tagecon
