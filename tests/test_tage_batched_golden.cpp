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
 * pins for the scalar loop — not re-harvested for the batched path.
 * The scalar run answers to the prediction digest, lookups included;
 * a batched run keeps no per-element lookup, so each of its
 * predictions must equal the scalar one field for field, and it must
 * end in the pinned state digest and the scalar run's saveState()
 * bytes.
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

/**
 * Hash every observable field of one prediction, and the lookup
 * @p pred made for it (read between predict() and update()).
 */
uint64_t
mixPrediction(uint64_t h, const TagePrediction& p,
              const TagePredictor& pred)
{
    const int num_tables = pred.config().numTaggedTables();
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
        h = mix(h, pred.lastLookup(t).index);
    for (int t = 1; t <= num_tables; ++t)
        h = mix(h, pred.lastLookup(t).tag);
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

std::vector<uint8_t>
saveBytes(const TagePredictor& p)
{
    StateWriter w;
    p.saveState(w);
    return w.take();
}

/** What a run over the golden stream leaves to compare. */
struct GoldenRun {
    std::vector<TagePrediction> predictions;
    uint64_t predDigest = kFnvOffset;
    uint64_t stateDigest = 0;
    std::vector<uint8_t> state;
};

/**
 * The scalar predict()/update() loop over the golden stream; the
 * prediction digest covers each lookup too.
 */
GoldenRun
runGoldenScalar(const TageConfig& cfg, const GoldenStream& s)
{
    TagePredictor pred(cfg);
    GoldenRun run;
    for (size_t i = 0; i < s.pcs.size(); ++i) {
        const TagePrediction p = pred.predict(s.pcs[i]);
        run.predDigest = mixPrediction(run.predDigest, p, pred);
        run.predictions.push_back(p);
        pred.update(s.pcs[i], p, s.taken[i] != 0);
    }
    run.stateDigest = stateDigest(pred);
    run.state = saveBytes(pred);
    return run;
}

/**
 * Drive the golden stream through predictMany() in batches of
 * @p batch (the last batch carries the tail). The prediction digest
 * is left unset: a batch keeps no per-element lookup.
 */
GoldenRun
runGoldenBatched(const TageConfig& cfg, const GoldenStream& s,
                 size_t batch)
{
    TagePredictor pred(cfg);
    GoldenRun run;
    run.predictions.resize(s.pcs.size());
    for (size_t at = 0; at < s.pcs.size(); at += batch) {
        const size_t n = std::min(batch, s.pcs.size() - at);
        pred.predictMany(
            std::span<const uint64_t>(s.pcs.data() + at, n),
            std::span<const uint8_t>(s.taken.data() + at, n),
            std::span<TagePrediction>(run.predictions.data() + at, n));
    }
    run.stateDigest = stateDigest(pred);
    run.state = saveBytes(pred);
    return run;
}

/** Index of the first prediction where @p a and @p b differ. */
size_t
firstMismatch(const std::vector<TagePrediction>& a,
              const std::vector<TagePrediction>& b)
{
    size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    return i;
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
    const GoldenStream s = goldenStream(cfg);
    const GoldenRun scalar = runGoldenScalar(cfg, s);
    EXPECT_EQ(scalar.predDigest, g.predDigest) << g.name;
    EXPECT_EQ(scalar.stateDigest, g.stateDigest) << g.name;
    for (const size_t batch : kBatchSizes) {
        SCOPED_TRACE("batch=" + std::to_string(batch));
        const GoldenRun batched = runGoldenBatched(cfg, s, batch);
        EXPECT_EQ(firstMismatch(batched.predictions, scalar.predictions),
                  s.pcs.size())
            << g.name << ": first prediction that differs";
        EXPECT_EQ(batched.stateDigest, g.stateDigest) << g.name;
        EXPECT_TRUE(batched.state == scalar.state) << g.name;
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
