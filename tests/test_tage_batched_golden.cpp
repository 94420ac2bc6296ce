/**
 * @file
 * Golden bit-identity tests for the batched TAGE step. The fused
 * predictMany() step must reproduce, to the bit, the behaviour the
 * scalar golden hashes in test_tage_golden.cpp were harvested from —
 * for every pinned paper configuration and at several batch sizes,
 * including sizes that do not divide the stream length (non-trivial
 * tail batches) and the degenerate batch of one.
 *
 * The digests pinned here are the very same values test_tage_golden
 * pins for the scalar loop (test_support.hpp's kGoldenCases) — not
 * re-harvested for the batched path.
 * The scalar run answers to the prediction digest, lookups included;
 * a batched run keeps no per-element lookup, so each of its
 * predictions must equal the scalar one field for field, and it must
 * end in the pinned state digest and the scalar run's saveState()
 * bytes.
 *
 * The adaptive stack (GradedTage with the Sec. 6.2 controller) resolves
 * each epoch-closing element from the block's rows on its own; it is
 * checked against its own scalar loop, prediction by prediction and in
 * snapshot() bytes, alone and as a follower (TagePredictor::follow())
 * of a plain 64K predictor.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tage/graded_tage.hpp"
#include "test_support.hpp"

namespace tagecon {
namespace {

// 1 exercises the degenerate single-element batch; 7 and 333 leave
// non-trivial tails (50000 % 7 == 6, 50000 % 333 == 50); 512 is the
// runTrace()/serving chunk size.
constexpr size_t kBatchSizes[] = {1, 7, 64, 333, 512};

class TageBatchedGolden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(TageBatchedGolden, PredictManyMatchesScalarGoldenDigests)
{
    const GoldenCase& g = GetParam();
    const TageConfig cfg = g.config();
    const Stream s = goldenStream(cfg);
    const GoldenRun scalar = runGolden(cfg);
    EXPECT_EQ(scalar.predDigest, g.predDigest) << g.name;
    EXPECT_EQ(scalar.stateDigest, g.stateDigest) << g.name;
    for (const size_t batch : kBatchSizes) {
        SCOPED_TRACE("batch=" + std::to_string(batch));
        TagePredictor batched(cfg);
        const auto got = predictAll(batched, s, batches(s.size(), batch));
        EXPECT_EQ(firstMismatch(got, scalar.predictions), -1)
            << g.name << ": first prediction that differs";
        EXPECT_EQ(stateDigest(batched), g.stateDigest) << g.name;
        EXPECT_TRUE(saveBytes(batched) == scalar.state) << g.name;
    }
}

INSTANTIATE_TEST_SUITE_P(PaperConfigs, TageBatchedGolden,
                         ::testing::ValuesIn(kGoldenCases),
                         goldenCaseName);

/**
 * GradedTage on 64K+prob7 with the controller at @p epoch_length. The
 * paper's controller walks log2(1/p) over [0, 10]; the narrow one
 * flips it between 0 and 1, where the saturation gate either consumes
 * an LFSR draw or does not, so training the epoch-closing element
 * with the stale p shows up downstream at once.
 */
std::unique_ptr<GradedTage>
adaptiveTage(uint64_t epoch_length, bool narrow)
{
    GradedTageOptions opt;
    opt.adaptive = true;
    opt.adaptiveConfig.epochLength = epoch_length;
    if (narrow) {
        opt.adaptiveConfig.minLog2 = 0;
        opt.adaptiveConfig.maxLog2 = 1;
        opt.adaptiveConfig.initialLog2 = 1;
    }
    return std::make_unique<GradedTage>(
        TageConfig::medium64K().withProbabilisticSaturation(7), opt);
}

TEST(AdaptiveBatchedGolden, PredictManyMatchesTheScalarLoop)
{
    // FP-1 keeps the high class near the 10 MKP target, so both
    // controllers move p in every epoch length below.
    const Stream s = traceStream("FP-1", kGoldenBranches);
    const size_t n = s.size();
    for (const bool narrow : {false, true}) {
        for (const uint64_t epoch :
             {uint64_t{1}, uint64_t{64}, uint64_t{1000}}) {
            auto scalar = adaptiveTage(epoch, narrow);
            const Chunks loop = scalarLoop(n);
            std::vector<Prediction> want;
            int p_changes = 0;
            for (size_t i = 0; i < n; ++i) {
                const unsigned before = scalar->satLog2Prob();
                runChunks(*scalar, s, loop, i, i + 1, want);
                p_changes += scalar->satLog2Prob() != before ? 1 : 0;
            }
            // The controller must really move p, or this test is blind
            // to when the new p takes effect.
            ASSERT_GT(p_changes, 0) << "epoch=" << epoch;
            const std::vector<uint8_t> final_state = snapshotBytes(*scalar);

            for (const size_t batch : kBatchSizes) {
                SCOPED_TRACE(std::string(narrow ? "narrow" : "paper") +
                             " epoch=" + std::to_string(epoch) +
                             " batch=" + std::to_string(batch));
                auto batched = adaptiveTage(epoch, narrow);
                const auto got = predictAll(*batched, s, batches(n, batch));
                EXPECT_EQ(firstMismatch(want, got), -1)
                    << "first diverging prediction";
                EXPECT_TRUE(snapshotBytes(*batched) == final_state);
                EXPECT_EQ(batched->controller()->epochs(),
                          scalar->controller()->epochs());
                EXPECT_EQ(batched->satLog2Prob(), scalar->satLog2Prob());
            }

            // As a follower: a plain predictor of its geometry indexes
            // each block, and the adaptive stack resolves it, epoch
            // closes included, from the leader's rows.
            SCOPED_TRACE(std::string(narrow ? "narrow" : "paper") +
                         " epoch=" + std::to_string(epoch) + " follower");
            TagePredictor leader(TageConfig::medium64K());
            auto follower = adaptiveTage(epoch, narrow);
            const auto got = predictFollowing(
                leader, *follower, s, batches(n, TagePredictor::kBatchBlock));
            EXPECT_EQ(firstMismatch(want, got), -1)
                << "first diverging prediction";
            EXPECT_TRUE(snapshotBytes(*follower) == final_state);
            EXPECT_EQ(follower->controller()->epochs(),
                      scalar->controller()->epochs());
        }
    }
}

} // namespace
} // namespace tagecon
