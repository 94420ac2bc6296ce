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
 * aging cadence or the allocation policy moves at least one hash.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "tage/tage_predictor.hpp"
#include "util/random.hpp"

namespace tagecon {
namespace {

/** FNV-1a 64-bit step. */
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

/**
 * Drive a deterministic mixed stream (64 branch sites, integer-only
 * outcome decisions) and return {prediction digest, state digest}.
 */
std::pair<uint64_t, uint64_t>
runGolden(const TageConfig& cfg)
{
    TagePredictor pred(cfg);
    XorShift128Plus rng(0xD1CEB007 + cfg.tagged.size());
    uint64_t pd = kFnvOffset;
    for (int i = 0; i < kBranches; ++i) {
        const uint64_t r = rng.next();
        const uint64_t pc = 0x4000 + (r % 64) * 4;
        // Mix of loopy sites (period tied to the site) and noisy ones.
        const bool taken = (pc & 8) ? (i % (3 + (pc & 7)) != 0)
                                    : ((r >> 32) & 1) != 0;
        const TagePrediction p = pred.predict(pc);
        pd = mixPrediction(pd, p, pred);
        pred.update(pc, p, taken);
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
    // Fast aging: small uResetPeriod so the golden stream crosses
    // several graceful-reset boundaries (pins the reset cadence).
    TageConfig cfg = TageConfig::medium64K();
    cfg.uResetPeriod = 4096;
    return cfg;
}

class TageGolden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(TageGolden, BitIdenticalToRecordedBehaviour)
{
    const GoldenCase& g = GetParam();
    const auto [pred_digest, state_digest] = runGolden(configFor(g.name));
    EXPECT_EQ(pred_digest, g.predDigest) << g.name;
    EXPECT_EQ(state_digest, g.stateDigest) << g.name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, TageGolden,
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

} // namespace
} // namespace tagecon
