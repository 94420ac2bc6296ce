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
 * pins for the scalar loop — not re-harvested for the batched path —
 * so any divergence between the two paths moves a hash.
 *
 * The adaptive stack (GradedTage with the Sec. 6.2 controller) batches
 * around each epoch-closing element; it is checked against its own
 * scalar loop, prediction by prediction and in snapshot() bytes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "tage/graded_tage.hpp"
#include "tage/tage_predictor.hpp"
#include "trace/profiles.hpp"
#include "util/random.hpp"

namespace tagecon {
namespace {

/** FNV-1a 64-bit step (same recipe as test_tage_golden.cpp). */
uint64_t
mix(uint64_t h, uint64_t v)
{
    h ^= v;
    h *= 0x100000001b3ULL;
    return h;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr int kBranches = 50000;

/** Hash every observable field of one prediction. */
uint64_t
mixPrediction(uint64_t h, const TagePrediction& p, int num_tables)
{
    h = mix(h, p.taken);
    h = mix(h, static_cast<uint64_t>(p.providerTable));
    h = mix(h, static_cast<uint64_t>(static_cast<int64_t>(p.providerCtr)));
    h = mix(h, static_cast<uint64_t>(p.providerStrength));
    h = mix(h, p.providerSaturated);
    h = mix(h, p.providerWeak);
    h = mix(h, p.bimodalTaken);
    h = mix(h, p.bimodalWeak);
    h = mix(h, p.altTaken);
    h = mix(h, static_cast<uint64_t>(p.altTable));
    h = mix(h, p.usedAlt);
    for (int t = 0; t <= num_tables; ++t)
        h = mix(h, p.index[static_cast<size_t>(t)]);
    for (int t = 1; t <= num_tables; ++t)
        h = mix(h, p.tag[static_cast<size_t>(t)]);
    return h;
}

/** Hash the full architectural state of the predictor. */
uint64_t
stateDigest(const TagePredictor& pred)
{
    uint64_t h = kFnvOffset;
    const TageConfig& cfg = pred.config();
    for (int t = 1; t <= cfg.numTaggedTables(); ++t) {
        const uint32_t entries =
            uint32_t{1} << cfg.tagged[static_cast<size_t>(t - 1)]
                               .logEntries;
        for (uint32_t i = 0; i < entries; ++i) {
            const auto e = pred.taggedEntry(t, i);
            h = mix(h, static_cast<uint64_t>(
                           static_cast<int64_t>(e.ctr.value())));
            h = mix(h, e.tag);
            h = mix(h, e.u.value());
        }
    }
    const uint32_t bim_entries = uint32_t{1} << cfg.logBimodalEntries;
    for (uint32_t i = 0; i < bim_entries; ++i)
        h = mix(h, pred.bimodalEntry(i).value());
    h = mix(h, static_cast<uint64_t>(
                   static_cast<int64_t>(pred.useAltOnNa())));
    h = mix(h, pred.allocations());
    h = mix(h, pred.updates());
    return h;
}

/** The golden stream of test_tage_golden.cpp, fully materialized. */
struct GoldenStream {
    std::vector<uint64_t> pcs;
    std::vector<uint8_t> taken;
};

GoldenStream
goldenStream(const TageConfig& cfg)
{
    GoldenStream s;
    s.pcs.reserve(kBranches);
    s.taken.reserve(kBranches);
    XorShift128Plus rng(0xD1CEB007 + cfg.tagged.size());
    for (int i = 0; i < kBranches; ++i) {
        const uint64_t r = rng.next();
        const uint64_t pc = 0x4000 + (r % 64) * 4;
        const bool taken = (pc & 8) ? (i % (3 + (pc & 7)) != 0)
                                    : ((r >> 32) & 1) != 0;
        s.pcs.push_back(pc);
        s.taken.push_back(taken ? 1 : 0);
    }
    return s;
}

/**
 * Drive the golden stream through predictMany() in batches of
 * @p batch (the last batch carries the tail) and return
 * {prediction digest, state digest}.
 */
std::pair<uint64_t, uint64_t>
runGoldenBatched(const TageConfig& cfg, size_t batch)
{
    TagePredictor pred(cfg);
    const GoldenStream s = goldenStream(cfg);
    std::vector<TagePrediction> out(batch);
    uint64_t pd = kFnvOffset;
    const int m = cfg.numTaggedTables();
    for (size_t at = 0; at < s.pcs.size(); at += batch) {
        const size_t n = std::min(batch, s.pcs.size() - at);
        pred.predictMany(
            std::span<const uint64_t>(s.pcs.data() + at, n),
            std::span<const uint8_t>(s.taken.data() + at, n),
            std::span<TagePrediction>(out.data(), n));
        for (size_t k = 0; k < n; ++k)
            pd = mixPrediction(pd, out[k], m);
    }
    return {pd, stateDigest(pred)};
}

struct GoldenCase {
    const char* name;
    uint64_t predDigest;
    uint64_t stateDigest;
};

TageConfig
configFor(const std::string& name)
{
    if (name == "16K")
        return TageConfig::small16K();
    if (name == "64K")
        return TageConfig::medium64K();
    if (name == "256K")
        return TageConfig::large256K();
    if (name == "64K-prob7")
        return TageConfig::medium64K().withProbabilisticSaturation(7);
    TageConfig cfg = TageConfig::medium64K();
    cfg.uResetPeriod = 4096;
    return cfg;
}

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
    const TageConfig cfg = configFor(g.name);
    for (const size_t batch : kBatchSizes) {
        SCOPED_TRACE("batch=" + std::to_string(batch));
        const auto [pred_digest, state_digest] =
            runGoldenBatched(cfg, batch);
        EXPECT_EQ(pred_digest, g.predDigest) << g.name;
        EXPECT_EQ(state_digest, g.stateDigest) << g.name;
    }
}

// The pinned digests are the very same values test_tage_golden.cpp
// pins for the scalar loop — not re-harvested for the batched path.
INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, TageBatchedGolden,
    ::testing::Values(
        GoldenCase{"16K", 7150495434390549119ULL,
                   8447484763274118460ULL},
        GoldenCase{"64K", 12562089021334520864ULL,
                   10966023290916501465ULL},
        GoldenCase{"256K", 6625890519000511774ULL,
                   203579634401270635ULL},
        GoldenCase{"64K-prob7", 12957036419155950676ULL,
                   716300752043846386ULL},
        GoldenCase{"64K-fastage", 10233611863893694473ULL,
                   5617762536944745845ULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
        std::string n = info.param.name;
        for (auto& c : n)
            if (c == '-')
                c = '_';
        return n;
    });

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

std::vector<uint8_t>
snapshotBytes(const GradedPredictor& p)
{
    StateWriter w;
    std::string error;
    EXPECT_TRUE(p.snapshot(w, error)) << error;
    return w.take();
}

TEST(AdaptiveBatchedGolden, PredictManyMatchesTheScalarLoop)
{
    // FP-1 keeps the high class near the 10 MKP target, so both
    // controllers move p in every epoch length below.
    GoldenStream s;
    SyntheticTrace trace = makeTrace("FP-1", kBranches);
    const VectorTrace records = materialize(trace, kBranches);
    for (const BranchRecord& rec : records.records()) {
        s.pcs.push_back(rec.pc);
        s.taken.push_back(rec.taken ? 1 : 0);
    }
    const size_t n = s.pcs.size();
    for (const bool narrow : {false, true}) {
        for (const uint64_t epoch :
             {uint64_t{1}, uint64_t{64}, uint64_t{1000}}) {
            auto scalar = adaptiveTage(epoch, narrow);
            std::vector<Prediction> want(n);
            int p_changes = 0;
            for (size_t i = 0; i < n; ++i) {
                const unsigned before = scalar->satLog2Prob();
                want[i] = scalar->predict(s.pcs[i]);
                scalar->update(s.pcs[i], want[i], s.taken[i] != 0);
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
                std::vector<Prediction> got(n);
                for (size_t at = 0; at < n; at += batch) {
                    const size_t len = std::min(batch, n - at);
                    batched->predictMany(
                        std::span<const uint64_t>(s.pcs.data() + at, len),
                        std::span<const uint8_t>(s.taken.data() + at, len),
                        std::span<Prediction>(got.data() + at, len));
                }
                size_t diverged = n;
                for (size_t i = 0; i < n && diverged == n; ++i) {
                    const Prediction& a = want[i];
                    const Prediction& b = got[i];
                    if (a.taken != b.taken || a.cls != b.cls ||
                        a.confidence != b.confidence ||
                        a.payload != b.payload)
                        diverged = i;
                }
                EXPECT_EQ(diverged, n) << "first diverging prediction";
                EXPECT_TRUE(snapshotBytes(*batched) == final_state);
                EXPECT_EQ(batched->controller()->epochs(),
                          scalar->controller()->epochs());
                EXPECT_EQ(batched->satLog2Prob(), scalar->satLog2Prob());
            }
        }
    }
}

} // namespace
} // namespace tagecon
