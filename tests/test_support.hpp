/**
 * @file
 * The TAGE test oracles, shared by every suite that pins TAGE's
 * behaviour or checks one way of running it against another:
 *
 *  - the golden digest recipe: one FNV-1a step (mix()), a per-step
 *    prediction digest over every field of a TagePrediction and of its
 *    lookup (mixPrediction()), and a final-state digest over every
 *    table entry and counter (stateDigest());
 *  - the golden stream and its five configurations, with their pinned
 *    digests (kGoldenCases), and the scalar run they pin (runGolden());
 *  - the runners the equivalence suites compare, at the raw
 *    (TagePredictor) and the registry (GradedPredictor) level: the
 *    scalar loop and predictMany() over any chunking (predictAll()), a
 *    follower stepped block by block behind its leader
 *    (predictFollowing()), a snapshot and restore at a cut
 *    (predictRestoredAt()), the state bytes of either level
 *    (saveBytes(), snapshotBytes()) and the first mismatch of two runs.
 *
 * kGoldenCases is the one table of pinned golden values. A change that
 * moves TAGE's behaviour on purpose re-harvests it from the new value
 * each failing EXPECT_EQ prints.
 *
 * Header-only: CMake builds one binary per tests/test_*.cpp, and a
 * suite includes this header for what it shares.
 */

#ifndef TAGECON_TESTS_TEST_SUPPORT_HPP
#define TAGECON_TESTS_TEST_SUPPORT_HPP

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/graded_predictor.hpp"
#include "sim/trace_registry.hpp"
#include "tage/tage_predictor.hpp"
#include "trace/profiles.hpp"
#include "util/random.hpp"
#include "util/state_io.hpp"

namespace tagecon {

// --- The golden digest recipe ------------------------------------------

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/** One FNV-1a 64-bit step. */
inline uint64_t
mix(uint64_t h, uint64_t v)
{
    h ^= v;
    h *= 0x100000001b3ULL;
    return h;
}

/**
 * Hash every observable field of one prediction, and the lookup
 * @p pred made for it (read between predict() and update()).
 */
inline uint64_t
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

/**
 * Hash the full architectural state of the predictor: every tagged
 * entry (ctr, tag, u), the bimodal counters, USE_ALT_ON_NA and the
 * allocation and update counters.
 */
inline uint64_t
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

// --- Streams -------------------------------------------------------------

/** A branch stream, fully materialized: what every runner drives. */
struct Stream {
    std::vector<uint64_t> pcs;
    std::vector<uint8_t> taken;

    size_t size() const { return pcs.size(); }
};

constexpr uint64_t kGoldenSeed = 0xD1CEB007;
constexpr size_t kGoldenBranches = 50000;

/**
 * The golden stream: @p n branches over 64 sites drawn from @p seed,
 * loopy ones (period tied to the site) and noisy ones, with
 * integer-only outcome decisions.
 */
inline Stream
goldenStream(uint64_t seed, size_t n = kGoldenBranches)
{
    Stream s;
    s.pcs.reserve(n);
    s.taken.reserve(n);
    XorShift128Plus rng(seed);
    for (size_t i = 0; i < n; ++i) {
        const uint64_t r = rng.next();
        const uint64_t pc = 0x4000 + (r % 64) * 4;
        const bool taken = (pc & 8) ? (i % (3 + (pc & 7)) != 0)
                                    : ((r >> 32) & 1) != 0;
        s.pcs.push_back(pc);
        s.taken.push_back(taken ? 1 : 0);
    }
    return s;
}

/** The golden stream @p cfg's pinned digests were harvested from. */
inline Stream
goldenStream(const TageConfig& cfg)
{
    return goldenStream(kGoldenSeed + cfg.tagged.size());
}

/** The first @p n branches of synthetic trace @p name. */
inline Stream
traceStream(const std::string& name, uint64_t n)
{
    SyntheticTrace trace = makeTrace(name, n);
    Stream s;
    BranchRecord rec;
    while (trace.next(rec)) {
        s.pcs.push_back(rec.pc);
        s.taken.push_back(rec.taken ? 1 : 0);
    }
    return s;
}

/** openTraceSource() of a spec the test expects to open. */
inline std::unique_ptr<TraceSource>
openOk(const std::string& spec, uint64_t branches, uint64_t seed_salt = 0)
{
    auto opened = openTraceSource(spec, branches, seed_salt);
    EXPECT_TRUE(opened.ok()) << opened.error().message();
    return opened.ok() ? opened.take() : nullptr;
}

// --- The pinned golden values --------------------------------------------

/**
 * One configuration of the golden stream and what its scalar run
 * pins: every TAGE refactor must stay bit-identical to the behaviour
 * these digests were harvested from.
 */
struct GoldenCase {
    const char* name;
    TageConfig (*config)();

    /** mixPrediction() over every step. */
    uint64_t predDigest;

    /** stateDigest() at the end. */
    uint64_t stateDigest;

    /**
     * fnv1a64() of the final saveState() bytes, the wire format;
     * harvested from the per-element encoder, before the arenas moved
     * to bulk copies.
     */
    uint64_t blobDigest;
};

inline const GoldenCase kGoldenCases[] = {
    {"16K", &TageConfig::small16K, 7150495434390549119ULL,
     8447484763274118460ULL, 5595002478576410022ULL},
    {"64K", &TageConfig::medium64K, 12562089021334520864ULL,
     10966023290916501465ULL, 17962360148400378647ULL},
    {"256K", &TageConfig::large256K, 6625890519000511774ULL,
     203579634401270635ULL, 16238664834611045821ULL},
    {"64K-prob7",
     [] { return TageConfig::medium64K().withProbabilisticSaturation(7); },
     12957036419155950676ULL, 716300752043846386ULL,
     4074103757994365668ULL},
    // Fast aging: a small uResetPeriod makes the golden stream cross
    // several graceful-reset boundaries (pins the reset cadence).
    {"64K-fastage",
     [] {
         TageConfig cfg = TageConfig::medium64K();
         cfg.uResetPeriod = 4096;
         return cfg;
     },
     10233611863893694473ULL, 5617762536944745845ULL,
     5744233108234672023ULL},
};

/** gtest prints a golden case as its name. */
inline void
PrintTo(const GoldenCase& g, std::ostream* os)
{
    *os << g.name;
}

/** The gtest name of a golden case: its name, '-' spelled '_'. */
inline std::string
goldenCaseName(const ::testing::TestParamInfo<GoldenCase>& info)
{
    std::string n = info.param.name;
    std::replace(n.begin(), n.end(), '-', '_');
    return n;
}

// --- State bytes ---------------------------------------------------------

/** @p p's saveState() bytes. */
inline std::vector<uint8_t>
saveBytes(const TagePredictor& p)
{
    StateWriter w;
    p.saveState(w);
    return w.take();
}

/** @p p's snapshot() bytes; a snapshot that fails fails the test. */
inline std::vector<uint8_t>
snapshotBytes(const GradedPredictor& p)
{
    StateWriter w;
    std::string error;
    EXPECT_TRUE(p.snapshot(w, error)) << error;
    return w.take();
}

/**
 * Restore @p into from @p from's state bytes: the load must succeed
 * and read every byte.
 */
inline void
restoreFrom(TagePredictor& into, const TagePredictor& from)
{
    const std::vector<uint8_t> bytes = saveBytes(from);
    StateReader in(bytes);
    std::string error;
    EXPECT_TRUE(into.loadState(in, error)) << error;
    EXPECT_TRUE(in.exhausted());
}

inline void
restoreFrom(GradedPredictor& into, const GradedPredictor& from)
{
    const std::vector<uint8_t> bytes = snapshotBytes(from);
    StateReader in(bytes);
    std::string error;
    EXPECT_TRUE(into.restore(in, error)) << error;
    EXPECT_TRUE(in.exhausted());
}

// --- Runners -------------------------------------------------------------

/** One piece of a run: its length, and whether it steps scalar. */
struct Chunk {
    size_t len;
    bool scalar;
};

/** How a run walks its stream, chunk after chunk. */
using Chunks = std::vector<Chunk>;

/** The scalar predict()/update() loop over @p n elements. */
inline Chunks
scalarLoop(size_t n)
{
    return {{n, true}};
}

/** predictMany() in batches of @p batch; the last carries the tail. */
inline Chunks
batches(size_t n, size_t batch)
{
    Chunks chunks;
    for (size_t at = 0; at < n; at += batch)
        chunks.push_back({std::min(batch, n - at), false});
    return chunks;
}

/** What predictor type @p P predicts. */
template <typename P>
using PredictionOf = decltype(std::declval<P&>().predict(uint64_t{0}));

/** A per-step hook that looks at nothing. */
struct NoHook {
    template <typename Pred, typename P>
    void
    operator()(const Pred&, const P&) const
    {
    }
};

/**
 * Drive @p p over elements [@p from, @p to) of @p s through @p chunks,
 * cut at @p from and @p to: a scalar chunk with predict()/update(),
 * any other with one predictMany() call. Element i's prediction lands
 * in out[i]; @p on_step sees each scalar step between predict() and
 * update(), while @p p still holds its lookup. Raw predictions start
 * from bytes no prediction holds, so a predictMany() that skips a
 * field shows.
 */
template <typename P, typename Pred, typename OnStep = NoHook>
void
runChunks(P& p, const Stream& s, const Chunks& chunks, size_t from,
          size_t to, std::vector<Pred>& out, OnStep on_step = {})
{
    if (out.size() < s.size()) {
        Pred blank{};
        if constexpr (std::is_same_v<Pred, TagePrediction>)
            std::memset(static_cast<void*>(&blank), 0x5A, sizeof blank);
        out.resize(s.size(), blank);
    }
    size_t at = 0;
    for (const Chunk& c : chunks) {
        const size_t lo = std::max(at, from);
        const size_t hi = std::min(at + c.len, to);
        at += c.len;
        if (lo >= hi)
            continue;
        if (!c.scalar) {
            p.predictMany(
                std::span<const uint64_t>(s.pcs.data() + lo, hi - lo),
                std::span<const uint8_t>(s.taken.data() + lo, hi - lo),
                std::span<Pred>(out.data() + lo, hi - lo));
            continue;
        }
        for (size_t i = lo; i < hi; ++i) {
            out[i] = p.predict(s.pcs[i]);
            on_step(out[i], p);
            p.update(s.pcs[i], out[i], s.taken[i] != 0);
        }
    }
}

/** @p p's predictions over all of @p s through @p chunks. */
template <typename P, typename OnStep = NoHook>
std::vector<PredictionOf<P>>
predictAll(P& p, const Stream& s, const Chunks& chunks, OnStep on_step = {})
{
    std::vector<PredictionOf<P>> out;
    runChunks(p, s, chunks, 0, s.size(), out, on_step);
    return out;
}

/**
 * @p first's predictions over [0, @p cut) of @p s through @p chunks,
 * then those of @p second, freshly built and restored from @p first,
 * over the rest: a complete snapshot makes them the uninterrupted
 * run's.
 */
template <typename P, typename OnStep = NoHook>
std::vector<PredictionOf<P>>
predictRestoredAt(P& first, P& second, const Stream& s,
                  const Chunks& chunks, size_t cut, OnStep on_step = {})
{
    std::vector<PredictionOf<P>> out;
    runChunks(first, s, chunks, 0, cut, out, on_step);
    restoreFrom(second, first);
    runChunks(second, s, chunks, cut, s.size(), out, on_step);
    return out;
}

/** The TagePredictor that follows or leads for @p p. */
inline TagePredictor&
tageOf(TagePredictor& p)
{
    return p;
}

inline TagePredictor&
tageOf(GradedPredictor& p)
{
    TagePredictor* const tage = p.tagePredictor();
    EXPECT_NE(tage, nullptr);
    return *tage;
}

/**
 * @p follower's predictions over @p s through @p chunks, bound to
 * @p leader (TagePredictor::follow()) and stepped one kBatchBlock block
 * behind it at a time, the order a lookup group steps in. A scalar
 * chunk unbinds the follower, steps both alone and binds them again;
 * the follower ends unbound.
 */
template <typename L, typename F>
std::vector<PredictionOf<F>>
predictFollowing(L& leader, F& follower, const Stream& s,
                 const Chunks& chunks)
{
    std::vector<PredictionOf<L>> led;
    std::vector<PredictionOf<F>> got;
    TagePredictor& tage = tageOf(follower);
    tage.follow(tageOf(leader));
    size_t at = 0;
    for (const Chunk& c : chunks) {
        if (c.scalar) {
            tage.stopFollowing();
            runChunks(leader, s, chunks, at, at + c.len, led);
            runChunks(follower, s, chunks, at, at + c.len, got);
            tage.follow(tageOf(leader));
        } else {
            for (size_t b = at; b < at + c.len;
                 b += TagePredictor::kBatchBlock) {
                const size_t end =
                    std::min(b + TagePredictor::kBatchBlock, at + c.len);
                runChunks(leader, s, chunks, b, end, led);
                runChunks(follower, s, chunks, b, end, got);
            }
        }
        at += c.len;
    }
    tage.stopFollowing();
    return got;
}

/** Index of the first element where @p a and @p b differ, or -1. */
template <typename T>
int64_t
firstMismatch(const std::vector<T>& a, const std::vector<T>& b)
{
    const auto [ia, ib] =
        std::mismatch(a.begin(), a.end(), b.begin(), b.end());
    return ia == a.end() && ib == b.end() ? -1 : ia - a.begin();
}

/** What the golden recipe sees of one scalar run. */
struct GoldenRun {
    std::vector<TagePrediction> predictions;
    uint64_t predDigest = kFnvOffset;
    uint64_t stateDigest = 0;

    /** The final saveState() bytes. */
    std::vector<uint8_t> state;
};

/**
 * The scalar loop of a fresh @p cfg predictor over its golden stream,
 * every step folded into the prediction digest. With @p restore_at,
 * the predictor is snapshotted there and a freshly built one, restored
 * from it, serves the rest.
 */
inline GoldenRun
runGolden(const TageConfig& cfg,
          std::optional<size_t> restore_at = std::nullopt)
{
    const Stream s = goldenStream(cfg);
    GoldenRun run;
    const auto digest = [&run](const TagePrediction& p,
                               const TagePredictor& pred) {
        run.predDigest = mixPrediction(run.predDigest, p, pred);
    };
    TagePredictor first(cfg);
    std::optional<TagePredictor> second;
    if (restore_at) {
        second.emplace(cfg);
        run.predictions = predictRestoredAt(
            first, *second, s, scalarLoop(s.size()), *restore_at, digest);
    } else {
        run.predictions = predictAll(first, s, scalarLoop(s.size()), digest);
    }
    const TagePredictor& last = second ? *second : first;
    run.stateDigest = stateDigest(last);
    run.state = saveBytes(last);
    return run;
}

} // namespace tagecon

#endif // TAGECON_TESTS_TEST_SUPPORT_HPP
