/**
 * @file
 * Randomized-geometry oracle for the batched TAGE step. The golden
 * suites pin five fixed geometries; this one draws 48 seeded TAGE
 * specs from the whole spec grammar (1-16 tables, 1-24 index bits,
 * 2-16 tag bits, every ctr/ubits split that packs into a byte,
 * histories up to 4000 bits, USE_ALT_ON_NA on and off, probabilistic
 * and adaptive saturation) and checks, for each one:
 *
 *  - TagePredictor::predictMany() at random batch sizes, interleaved
 *    with scalar predict()/update() runs and writing into structs that
 *    start out as junk, returns every field of every TagePrediction
 *    the scalar loop returns and ends in the same saveState() bytes;
 *  - the registry predictor's predictMany() returns the scalar loop's
 *    Prediction stream and ends in the same snapshot() bytes;
 *  - a snapshot taken at a random point and restored into a freshly
 *    built predictor finishes exactly as the uninterrupted run.
 *
 * One FNV-1a digest over every spec, every scalar prediction and every
 * final state is pinned as well. It was harvested from the scalar
 * loop before the folds moved into SIMD lanes, so the SIMD and the
 * TAGECON_NO_SIMD builds both answer to the same value.
 *
 * A second oracle draws L-TAGE specs over the same keys (with +prob,
 * never adaptive, graded by sfc, jrs or jrsg) and checks the registry
 * level the same way. Its digest covers the specs and every scalar
 * prediction; it was harvested from the L-TAGE class that predated
 * the loop part of GradedTage, and so anchors the loop part to it.
 *
 * A third check drives byte-granular PCs, whose low bits make the
 * path register live, through the raw predictMany() on the paper's
 * three geometries and a few drawn ones. It pins no digest.
 *
 * A fourth draws tiny geometries (4-16 entries per table, short
 * histories), where most 64-element blocks look up entries that an
 * earlier element of the same block trained, and checks them at both
 * levels. Its digest was harvested from the predictor whose
 * TagePrediction still carried the lookup.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/registry.hpp"
#include "tage/graded_tage.hpp"
#include "tage/tage_predictor.hpp"
#include "util/random.hpp"
#include "util/state_io.hpp"

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
constexpr int kSpecs = 48;
constexpr int kLTageSpecs = 32;
constexpr int kTinySpecs = 24;

/** Largest tag arena a drawn geometry may allocate. */
constexpr uint64_t kMaxArenaBytes = uint64_t{8} << 20;

/**
 * Hash every observable field of one raw prediction, and the lookup
 * @p pred made for it (read between predict() and update()).
 */
uint64_t
mixRaw(uint64_t h, const TagePrediction& p, const TagePredictor& pred)
{
    const int num_tables = pred.config().numTaggedTables();
    h = mix(h, p.taken);
    h = mix(h, p.providerIsTagged);
    h = mix(h, static_cast<uint64_t>(p.providerTable));
    h = mix(h, p.providerPredTaken);
    h = mix(h, static_cast<uint64_t>(static_cast<int64_t>(p.providerCtr)));
    h = mix(h, static_cast<uint64_t>(p.providerStrength));
    h = mix(h, p.providerSaturated);
    h = mix(h, p.providerWeak);
    h = mix(h, p.bimodalTaken);
    h = mix(h, p.bimodalWeak);
    h = mix(h, p.altTaken);
    h = mix(h, p.altIsTagged);
    h = mix(h, static_cast<uint64_t>(p.altTable));
    h = mix(h, p.usedAlt);
    for (int t = 0; t <= num_tables; ++t)
        h = mix(h, pred.lastLookup(t).index);
    for (int t = 1; t <= num_tables; ++t)
        h = mix(h, pred.lastLookup(t).tag);
    return h;
}

/** Hash one graded prediction. */
uint64_t
mixGraded(uint64_t h, const Prediction& p)
{
    h = mix(h, p.taken);
    h = mix(h, static_cast<uint64_t>(levelIndex(p.confidence)));
    h = mix(h, static_cast<uint64_t>(classIndex(p.cls)));
    h = mix(h, p.payload);
    return h;
}

uint64_t
mixBytes(uint64_t h, const std::vector<uint8_t>& bytes)
{
    return mix(mix(h, bytes.size()), fnv1a64(bytes.data(), bytes.size()));
}

/** One drawn spec: the registry string without and with "+sfc". */
struct DrawnSpec {
    std::string base;
    std::string full;
};

/**
 * Draw a TAGE spec from the grammar. History bounds come from three
 * bands (inside one 64-branch block, around the paper's lengths, and
 * far past any fixed window) so that every relation between a table's
 * history length and the batch block shows up.
 */
DrawnSpec
drawSpec(XorShift128Plus& rng)
{
    static const char* const kBases[] = {"tage16k", "tage64k", "tage256k"};
    const int tables = 1 + static_cast<int>(rng.nextBelow(16));
    int logent = 1 + static_cast<int>(rng.nextBelow(24));
    while ((uint64_t{2} * static_cast<uint64_t>(tables) << logent) >
           kMaxArenaBytes)
        --logent;
    const int tag = 2 + static_cast<int>(rng.nextBelow(15));
    const int ctr = 2 + static_cast<int>(rng.nextBelow(6));
    const int ubits = 1 + static_cast<int>(rng.nextBelow(
                              static_cast<uint64_t>(8 - ctr)));

    static const int kBandTop[] = {64, 700, 4000};
    const int top = kBandTop[rng.nextBelow(3)];
    const int maxhist =
        std::max(tables, 1 + static_cast<int>(rng.nextBelow(
                                 static_cast<uint64_t>(top))));
    const int minhist = 1 + static_cast<int>(rng.nextBelow(
                                static_cast<uint64_t>(maxhist - tables + 1)));

    std::string s = std::string(kBases[rng.nextBelow(3)]) +
                    ":tables=" + std::to_string(tables) +
                    ",logent=" + std::to_string(logent) +
                    ",tag=" + std::to_string(tag) +
                    ",ctr=" + std::to_string(ctr) +
                    ",ubits=" + std::to_string(ubits) +
                    ",minhist=" + std::to_string(minhist) +
                    ",maxhist=" + std::to_string(maxhist) +
                    ",ualt=" + (rng.nextBelow(2) != 0 ? "1" : "0");
    if (rng.nextBelow(2) != 0) {
        s += "+prob" + std::to_string(rng.nextBelow(16));
        if (rng.nextBelow(4) == 0)
            s += "+adaptive";
    }
    return {s, s + "+sfc"};
}

/**
 * Draw a TAGE spec with tiny tables: 4-16 entries per tagged table and
 * in the bimodal table, histories of at most 24 bits.
 */
DrawnSpec
drawTinySpec(XorShift128Plus& rng)
{
    const int tables = 1 + static_cast<int>(rng.nextBelow(8));
    const int ctr = 2 + static_cast<int>(rng.nextBelow(6));
    const int maxhist =
        std::max(tables, 1 + static_cast<int>(rng.nextBelow(24)));
    const int minhist = 1 + static_cast<int>(rng.nextBelow(
                                static_cast<uint64_t>(maxhist - tables + 1)));
    std::string s =
        "tage16k:tables=" + std::to_string(tables) +
        ",logent=" + std::to_string(2 + rng.nextBelow(3)) +
        ",logbim=" + std::to_string(2 + rng.nextBelow(3)) +
        ",tag=" + std::to_string(2 + rng.nextBelow(15)) +
        ",ctr=" + std::to_string(ctr) + ",ubits=" +
        std::to_string(1 + rng.nextBelow(static_cast<uint64_t>(8 - ctr))) +
        ",minhist=" + std::to_string(minhist) +
        ",maxhist=" + std::to_string(maxhist) +
        ",ualt=" + (rng.nextBelow(2) != 0 ? "1" : "0");
    if (rng.nextBelow(2) != 0)
        s += "+prob" + std::to_string(rng.nextBelow(16));
    return {s, s + "+sfc"};
}

/**
 * An L-TAGE spec over the same grammar: the TAGE draw on an ltage*
 * base, without adaptive, graded by sfc, jrs or jrsg.
 */
std::string
drawLTageSpec(XorShift128Plus& rng)
{
    static const char* const kEstimators[] = {"+sfc", "+sfc", "+jrs",
                                              "+jrsg"};
    std::string s = "l" + drawSpec(rng).base;
    if (const size_t at = s.find("+adaptive"); at != std::string::npos)
        s.erase(at);
    return s + kEstimators[rng.nextBelow(4)];
}

/** A branch stream with local, periodic and long-range structure. */
struct Stream {
    std::vector<uint64_t> pcs;
    std::vector<uint8_t> taken;
};

Stream
drawStream(XorShift128Plus& rng, size_t n)
{
    Stream s;
    s.pcs.resize(n);
    s.taken.resize(n);
    for (size_t i = 0; i < n; ++i) {
        const uint64_t r = rng.next();
        const uint64_t site = r % 96;
        s.pcs[i] = 0x400000 + site * 4 + ((site & 3) << 20);
        bool t;
        switch (site % 3) {
          case 0:
            t = ((r >> 32) & 1) != 0;
            break;
          case 1:
            t = (i / (site % 7 + 1)) % 2 == 0;
            break;
          default: {
            // Correlated with an outcome up to ~1500 branches back.
            const size_t lag = (site * 37) % 1500 + 1;
            t = i >= lag ? s.taken[i - lag] == 0 : true;
            break;
          }
        }
        s.taken[i] = t ? 1 : 0;
    }
    return s;
}

/** One run's chunking: sizes, and whether a chunk steps scalar. */
struct Chunk {
    size_t len;
    bool scalar;
};

std::vector<Chunk>
drawChunks(XorShift128Plus& rng, size_t n)
{
    std::vector<Chunk> chunks;
    for (size_t at = 0; at < n;) {
        const size_t len =
            std::min<size_t>(1 + rng.nextBelow(600), n - at);
        chunks.push_back({len, rng.nextBelow(8) == 0});
        at += len;
    }
    return chunks;
}

std::vector<uint8_t>
saveBytes(const TagePredictor& p)
{
    StateWriter w;
    p.saveState(w);
    return w.take();
}

std::vector<uint8_t>
snapshotBytes(const GradedPredictor& p)
{
    StateWriter w;
    std::string error;
    EXPECT_TRUE(p.snapshot(w, error)) << error;
    return w.take();
}

/** Index of the first element where @p a and @p b differ, or -1. */
template <typename T, typename Eq>
int64_t
firstMismatch(const std::vector<T>& a, const std::vector<T>& b, Eq eq)
{
    if (a.size() != b.size())
        return static_cast<int64_t>(std::min(a.size(), b.size()));
    for (size_t i = 0; i < a.size(); ++i)
        if (!eq(a[i], b[i]))
            return static_cast<int64_t>(i);
    return -1;
}

/**
 * Raw TagePredictor level: the scalar loop (feeds the digest) against
 * predictMany() over @p chunks, per element and in saveState() bytes.
 */
uint64_t
checkRaw(const TageConfig& cfg, const Stream& s,
         const std::vector<Chunk>& chunks, uint64_t h)
{
    const size_t n = s.pcs.size();
    TagePredictor scalar(cfg);
    std::vector<TagePrediction> want(n);
    for (size_t i = 0; i < n; ++i) {
        want[i] = scalar.predict(s.pcs[i]);
        h = mixRaw(h, want[i], scalar);
        scalar.update(s.pcs[i], want[i], s.taken[i] != 0);
    }
    const std::vector<uint8_t> final_state = saveBytes(scalar);
    h = mixBytes(h, final_state);

    // predictMany() writes every field: start each output from bytes
    // no scalar prediction holds.
    TagePredictor batched(cfg);
    TagePrediction poison;
    std::memset(static_cast<void*>(&poison), 0x5A, sizeof poison);
    std::vector<TagePrediction> got(n, poison);
    size_t at = 0;
    for (const Chunk& c : chunks) {
        if (c.scalar) {
            for (size_t i = at; i < at + c.len; ++i) {
                got[i] = batched.predict(s.pcs[i]);
                batched.update(s.pcs[i], got[i], s.taken[i] != 0);
            }
        } else {
            batched.predictMany(
                std::span<const uint64_t>(s.pcs.data() + at, c.len),
                std::span<const uint8_t>(s.taken.data() + at, c.len),
                std::span<TagePrediction>(got.data() + at, c.len));
        }
        at += c.len;
    }
    EXPECT_EQ(firstMismatch(want, got,
                            [](const TagePrediction& a,
                               const TagePrediction& b) { return a == b; }),
              -1)
        << "raw predictMany() diverged from the scalar loop";
    EXPECT_TRUE(saveBytes(batched) == final_state)
        << "raw predictMany() ended in a different state";
    return h;
}

/**
 * Over the aligned kBatchBlock-element windows of @p s, {windows in
 * which some element looks up an entry an earlier element of the
 * window trained (its provider's entry, or its bimodal counter when
 * the bimodal table provided), all windows}.
 */
std::pair<size_t, size_t>
rereadWindows(const TageConfig& cfg, const Stream& s)
{
    TagePredictor pred(cfg);
    const int m = cfg.numTaggedTables();
    std::set<std::pair<int, uint32_t>> trained;
    size_t reread = 0;
    size_t windows = 0;
    bool hit = false;
    for (size_t i = 0; i < s.pcs.size(); ++i) {
        if (i % TagePredictor::kBatchBlock == 0) {
            reread += hit ? 1 : 0;
            windows += i == 0 ? 0 : 1;
            trained.clear();
            hit = false;
        }
        const TagePrediction p = pred.predict(s.pcs[i]);
        for (int t = 0; t <= m && !hit; ++t)
            hit = trained.count({t, pred.lastLookup(t).index}) != 0;
        trained.insert(
            {p.providerTable, pred.lastLookup(p.providerTable).index});
        pred.update(s.pcs[i], p, s.taken[i] != 0);
    }
    return {reread, windows};
}

/**
 * Drive @p p over elements [from, to) of @p s through @p chunks
 * (chunks are cut at @p from and @p to), appending the predictions.
 */
void
driveGraded(GradedPredictor& p, const Stream& s,
            const std::vector<Chunk>& chunks, size_t from, size_t to,
            std::vector<Prediction>& out)
{
    out.resize(s.pcs.size());
    size_t at = 0;
    for (const Chunk& c : chunks) {
        const size_t lo = std::max(at, from);
        const size_t hi = std::min(at + c.len, to);
        at += c.len;
        if (lo >= hi)
            continue;
        if (c.scalar) {
            for (size_t i = lo; i < hi; ++i) {
                out[i] = p.predict(s.pcs[i]);
                p.update(s.pcs[i], out[i], s.taken[i] != 0);
            }
        } else {
            p.predictMany(
                std::span<const uint64_t>(s.pcs.data() + lo, hi - lo),
                std::span<const uint8_t>(s.taken.data() + lo, hi - lo),
                std::span<Prediction>(out.data() + lo, hi - lo));
        }
    }
}

bool
samePrediction(const Prediction& a, const Prediction& b)
{
    return a.taken == b.taken && a.confidence == b.confidence &&
           a.cls == b.cls && a.payload == b.payload;
}

/**
 * Registry level: the scalar loop (feeds the digest, with its final
 * state when @p hash_state) against predictMany() over @p chunks, and
 * against a run that is snapshotted at @p cut and finished by a
 * freshly built predictor.
 */
uint64_t
checkGraded(const std::string& spec, const Stream& s,
            const std::vector<Chunk>& chunks, size_t cut, uint64_t h,
            bool hash_state = true)
{
    const size_t n = s.pcs.size();
    auto scalar = makePredictor(spec);
    std::vector<Prediction> want(n);
    for (size_t i = 0; i < n; ++i) {
        want[i] = scalar->predict(s.pcs[i]);
        scalar->update(s.pcs[i], want[i], s.taken[i] != 0);
        h = mixGraded(h, want[i]);
    }
    const std::vector<uint8_t> final_state = snapshotBytes(*scalar);
    if (hash_state)
        h = mixBytes(h, final_state);

    auto batched = makePredictor(spec);
    std::vector<Prediction> got;
    driveGraded(*batched, s, chunks, 0, n, got);
    EXPECT_EQ(firstMismatch(want, got, samePrediction), -1)
        << "predictMany() diverged from the scalar loop";
    EXPECT_TRUE(snapshotBytes(*batched) == final_state)
        << "predictMany() ended in a different snapshot";

    auto first = makePredictor(spec);
    std::vector<Prediction> resumed;
    driveGraded(*first, s, chunks, 0, cut, resumed);
    const std::vector<uint8_t> blob = snapshotBytes(*first);
    auto second = makePredictor(spec);
    StateReader in(blob);
    std::string error;
    EXPECT_TRUE(second->restore(in, error)) << error;
    EXPECT_TRUE(in.exhausted());
    driveGraded(*second, s, chunks, cut, n, resumed);
    EXPECT_EQ(firstMismatch(want, resumed, samePrediction), -1)
        << "the run restored at " << cut << " diverged";
    EXPECT_TRUE(snapshotBytes(*second) == final_state)
        << "the run restored at " << cut << " ended elsewhere";
    return h;
}

TEST(TageRandomGeometry, BatchedAndRestoredRunsMatchTheScalarLoop)
{
    XorShift128Plus rng(0x7A6EC0DEULL);
    uint64_t h = kFnvOffset;
    for (int i = 0; i < kSpecs; ++i) {
        const DrawnSpec spec = drawSpec(rng);
        SCOPED_TRACE(spec.full);
        const size_t n = 2000 + rng.nextBelow(6000);
        const Stream s = drawStream(rng, n);
        const std::vector<Chunk> chunks = drawChunks(rng, n);
        const size_t cut = rng.nextBelow(n + 1);
        for (const char c : spec.full)
            h = mix(h, static_cast<uint8_t>(c));

        auto base = makePredictor(spec.base);
        const auto* graded = dynamic_cast<const GradedTage*>(base.get());
        ASSERT_NE(graded, nullptr);
        h = checkRaw(graded->tage().config(), s, chunks, h);
        h = checkGraded(spec.full, s, chunks, cut, h);
    }
    EXPECT_EQ(h, 18312974436605513468ULL)
        << "the pinned oracle digest moved";
}

// Every stream above has 4-aligned PCs, as every synthetic trace does,
// and instShift is 0, so the path register only ever shifts in 0 and
// the path term of every tagged index stays 0. Random low address bits
// make that term live: predictMany() must still return every field
// the scalar loop returns and end in the same saveState() bytes, on
// the paper's three geometries and on drawn ones.
TEST(TageRandomGeometry, ByteGranularPcsMatchTheScalarLoop)
{
    XorShift128Plus rng(0xB17EC0DEULL);
    std::vector<TageConfig> configs = {TageConfig::small16K(),
                                       TageConfig::medium64K(),
                                       TageConfig::large256K()};
    for (int i = 0; i < 5; ++i) {
        auto base = makePredictor(drawSpec(rng).base);
        const auto* graded = dynamic_cast<const GradedTage*>(base.get());
        ASSERT_NE(graded, nullptr);
        configs.push_back(graded->tage().config());
    }
    for (const TageConfig& cfg : configs) {
        SCOPED_TRACE(cfg.name);
        const size_t n = 3000 + rng.nextBelow(3000);
        Stream s = drawStream(rng, n);
        for (uint64_t& pc : s.pcs)
            pc += rng.nextBelow(4);
        std::vector<Chunk> chunks = drawChunks(rng, n);
        for (Chunk& c : chunks)
            c.scalar = false;
        std::ignore = checkRaw(cfg, s, chunks, kFnvOffset);
    }
}

// Tiny tables make a block re-read what it trained: a resolve that
// read an entry before the block's earlier elements trained it (in the
// index pass, say) diverges from the scalar loop here at once.
TEST(TageRandomGeometry, TinyTablesMatchTheScalarLoop)
{
    XorShift128Plus rng(0x71A7C0DEULL);
    uint64_t h = kFnvOffset;
    size_t reread = 0;
    size_t windows = 0;
    for (int i = 0; i < kTinySpecs; ++i) {
        const DrawnSpec spec = drawTinySpec(rng);
        SCOPED_TRACE(spec.full);
        const size_t n = 2000 + rng.nextBelow(6000);
        const Stream s = drawStream(rng, n);
        const std::vector<Chunk> chunks = drawChunks(rng, n);
        const size_t cut = rng.nextBelow(n + 1);
        for (const char c : spec.full)
            h = mix(h, static_cast<uint8_t>(c));

        auto base = makePredictor(spec.base);
        const auto* graded = dynamic_cast<const GradedTage*>(base.get());
        ASSERT_NE(graded, nullptr);
        const TageConfig& cfg = graded->tage().config();
        const auto [hits, all] = rereadWindows(cfg, s);
        reread += hits;
        windows += all;
        h = checkRaw(cfg, s, chunks, h);
        h = checkGraded(spec.full, s, chunks, cut, h);
    }
    EXPECT_GT(reread * 10, windows * 9)
        << reread << " of " << windows << " windows re-read an entry";
    EXPECT_EQ(h, 16511393670819324924ULL)
        << "the pinned oracle digest moved";
}

TEST(LTageRandomGeometry, BatchedAndRestoredRunsMatchTheScalarLoop)
{
    XorShift128Plus rng(0x17A6EC0DEULL);
    uint64_t h = kFnvOffset;
    for (int i = 0; i < kLTageSpecs; ++i) {
        const std::string spec = drawLTageSpec(rng);
        SCOPED_TRACE(spec);
        const size_t n = 2000 + rng.nextBelow(6000);
        const Stream s = drawStream(rng, n);
        const std::vector<Chunk> chunks = drawChunks(rng, n);
        const size_t cut = rng.nextBelow(n + 1);
        for (const char c : spec)
            h = mix(h, static_cast<uint8_t>(c));
        h = checkGraded(spec, s, chunks, cut, h, /*hash_state=*/false);
    }
    EXPECT_EQ(h, 10039309447447201118ULL)
        << "the pinned oracle digest moved";
}

} // namespace
} // namespace tagecon
