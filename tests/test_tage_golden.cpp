/**
 * @file
 * Golden state-hash regression tests: every storage refactor of the
 * TAGE predictor must be bit-identical to the behaviour these hashes
 * were harvested from. Two digests are combined per configuration:
 *
 *  - a per-step prediction digest over every field of TagePrediction
 *    and every per-table index and tag of its lookup (read through
 *    TagePredictor::lastLookup(); they depend on the folded histories
 *    and the path hash), and
 *  - a final-state digest over the full table contents (tagged ctr/
 *    tag/u, bimodal counters), USE_ALT_ON_NA and the allocation and
 *    update counters.
 *
 * Together they pin the predictor's observable behaviour bit-for-bit:
 * any change to counter packing, fold updates, index hashing, the
 * aging cadence or the allocation policy moves at least one hash. The
 * recipe, the golden stream and the pinned values live in
 * test_support.hpp.
 */

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace tagecon {
namespace {

class TageGolden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(TageGolden, BitIdenticalToRecordedBehaviour)
{
    const GoldenCase& g = GetParam();
    const GoldenRun run = runGolden(g.config());
    EXPECT_EQ(run.predDigest, g.predDigest) << g.name;
    EXPECT_EQ(run.stateDigest, g.stateDigest) << g.name;
}

INSTANTIATE_TEST_SUITE_P(PaperConfigs, TageGolden,
                         ::testing::ValuesIn(kGoldenCases),
                         goldenCaseName);

} // namespace
} // namespace tagecon
