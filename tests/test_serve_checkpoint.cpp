/**
 * @file
 * Checkpoint/restore tests: the golden-anchored guarantee that a
 * restored predictor is bit-identical to one that never stopped.
 *
 * The first suite reuses the golden state-hash harness from
 * test_tage_golden.cpp: it drives the same deterministic branch
 * stream, but snapshots the TAGE predictor halfway and finishes the
 * run on a *restored* copy — the prediction and final-state digests
 * must still equal the pinned golden values, so a checkpoint captures
 * the complete architectural state (tables, folded histories, path
 * hash, USE_ALT_ON_NA, aging counters) to the bit.
 *
 * The remaining suites cover the blob framing (serve/checkpoint.hpp):
 * registry-level round trips for every family (including the
 * perceptron and O-GEHL neural families added in checkpoint version
 * 2, L-TAGE and the JRS estimator stacks), restores into used
 * instances, pinned wire bytes, deterministic encoding, strict
 * rejection of truncated / corrupted / wrong-magic / wrong-version
 * (including old v1) / wrong-spec / wrong-part / out-of-range blobs,
 * stream-kind position fields, the scalar, bulk u16s and history-ring
 * encodings, and the file helpers.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "serve/checkpoint.hpp"
#include "sim/registry.hpp"
#include "sim/trace_registry.hpp"
#include "tage/loop_predictor.hpp"
#include "tage/tage_predictor.hpp"
#include "util/failpoint.hpp"
#include "util/global_history.hpp"
#include "util/random.hpp"
#include "util/state_io.hpp"

namespace tagecon {
namespace {

/** openTraceSource() of a spec the test expects to open. */
std::unique_ptr<TraceSource>
openOk(const std::string& spec, uint64_t branches, uint64_t seed_salt = 0)
{
    auto opened = openTraceSource(spec, branches, seed_salt);
    EXPECT_TRUE(opened.ok()) << opened.error().message();
    return opened.ok() ? opened.take() : nullptr;
}

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

/** One branch of the golden stream of test_tage_golden.cpp. */
struct GoldenBranch {
    uint64_t pc;
    bool taken;
};

/** Branch @p i of the golden stream, drawn from @p rng. */
GoldenBranch
goldenBranch(XorShift128Plus& rng, int i)
{
    const uint64_t r = rng.next();
    const uint64_t pc = 0x4000 + (r % 64) * 4;
    const bool taken = (pc & 8) ? (i % (3 + (pc & 7)) != 0)
                                : ((r >> 32) & 1) != 0;
    return {pc, taken};
}

/** FNV-1a of serialized state bytes. */
uint64_t
wireDigest(const std::vector<uint8_t>& bytes)
{
    return fnv1a64(bytes.data(), bytes.size());
}

/** @p p's snapshot() bytes. */
std::vector<uint8_t>
snapshotBytes(const GradedPredictor& p)
{
    StateWriter w;
    std::string error;
    EXPECT_TRUE(p.snapshot(w, error)) << error;
    return w.take();
}

/** What the golden round trip pins. */
struct GoldenDigests {
    uint64_t pred = 0;
    uint64_t state = 0;

    /** FNV-1a of the final saveState() bytes: the wire format. */
    uint64_t blob = 0;
};

/**
 * The golden stream of test_tage_golden.cpp, with one twist: halfway
 * through, predictor A is snapshotted and the rest of the run is
 * served by a freshly constructed predictor B restored from the blob.
 * If (and only if) the checkpoint is complete, the combined digests
 * match the uninterrupted golden values.
 */
GoldenDigests
runGoldenWithMidStreamRoundTrip(const TageConfig& cfg)
{
    TagePredictor a(cfg);
    TagePredictor b(cfg);
    TagePredictor* cur = &a;
    XorShift128Plus rng(0xD1CEB007 + cfg.tagged.size());
    GoldenDigests out;
    out.pred = kFnvOffset;
    for (int i = 0; i < kBranches; ++i) {
        if (i == kBranches / 2) {
            StateWriter w;
            a.saveState(w);
            const std::vector<uint8_t> blob = w.take();
            StateReader in(blob);
            std::string error;
            EXPECT_TRUE(b.loadState(in, error)) << error;
            EXPECT_TRUE(in.exhausted());
            cur = &b;
        }
        const GoldenBranch br = goldenBranch(rng, i);
        const TagePrediction p = cur->predict(br.pc);
        out.pred = mixPrediction(out.pred, p, *cur);
        cur->update(br.pc, p, br.taken);
    }
    out.state = stateDigest(b);
    StateWriter w;
    b.saveState(w);
    out.blob = wireDigest(w.data());
    return out;
}

struct GoldenCase {
    const char* name;
    uint64_t predDigest;
    uint64_t stateDigest;
    uint64_t blobDigest;
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

class TageCheckpointGolden
    : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(TageCheckpointGolden, MidStreamRestoreReproducesGoldenDigests)
{
    const GoldenCase& g = GetParam();
    const GoldenDigests got =
        runGoldenWithMidStreamRoundTrip(configFor(g.name));
    EXPECT_EQ(got.pred, g.predDigest) << g.name;
    EXPECT_EQ(got.state, g.stateDigest) << g.name;
    EXPECT_EQ(got.blob, g.blobDigest)
        << g.name << ": saveState() no longer writes the pinned bytes";
}

// The prediction and state digests are the very same values
// test_tage_golden.cpp pins for the uninterrupted runs — not
// re-harvested for this test. The blob digests were harvested from the
// per-element encoder, before the arenas moved to bulk copies.
INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, TageCheckpointGolden,
    ::testing::Values(
        GoldenCase{"16K", 7150495434390549119ULL,
                   8447484763274118460ULL,
                   5595002478576410022ULL},
        GoldenCase{"64K", 12562089021334520864ULL,
                   10966023290916501465ULL,
                   17962360148400378647ULL},
        GoldenCase{"256K", 6625890519000511774ULL,
                   203579634401270635ULL,
                   16238664834611045821ULL},
        GoldenCase{"64K-prob7", 12957036419155950676ULL,
                   716300752043846386ULL,
                   4074103757994365668ULL},
        GoldenCase{"64K-fastage", 10233611863893694473ULL,
                   5617762536944745845ULL,
                   5744233108234672023ULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
        std::string n = info.param.name;
        for (auto& c : n)
            if (c == '-')
                c = '_';
        return n;
    });

/**
 * FNV-1a of @p spec's snapshot() bytes after the golden stream, driven
 * through the registry's predict/update API.
 */
uint64_t
gradedBlobDigest(const std::string& spec)
{
    auto p = makePredictor(canonicalizeSpec(spec));
    XorShift128Plus rng(0xD1CEB007);
    for (int i = 0; i < kBranches; ++i) {
        const GoldenBranch br = goldenBranch(rng, i);
        const Prediction pr = p->predict(br.pc);
        p->update(br.pc, pr, br.taken);
    }
    return wireDigest(snapshotBytes(*p));
}

TEST(CheckpointWireBytes, BaselineFamiliesWriteThePinnedBytes)
{
    // Harvested from the per-element encoder, like the TAGE blob
    // digests above: bulk copies must write the very same bytes.
    const std::pair<const char*, uint64_t> pinned[] = {
        {"bimodal", 15175067393663170701ULL},
        {"gshare", 4264309872569767088ULL},
        {"perceptron+sfc", 680204132528424613ULL},
        {"ogehl+sfc", 491395854868008893ULL},
    };
    for (const auto& [spec, digest] : pinned)
        EXPECT_EQ(gradedBlobDigest(spec), digest) << spec;
}

/** Success of a typed checkpoint call, with its message on failure. */
::testing::AssertionResult
succeeded(const Err& e)
{
    if (e.ok())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << e.message();
}

/** The detail of a typed call expected to fail ("" if it succeeded). */
std::string
failureDetail(const Err& e)
{
    EXPECT_TRUE(e.failed()) << "expected a failure";
    return e.detail;
}

/** Feed up to @p n records of @p trace through @p p. */
void
drive(GradedPredictor& p, TraceSource& trace, uint64_t n)
{
    BranchRecord rec;
    for (uint64_t i = 0; i < n && trace.next(rec); ++i) {
        const Prediction pr = p.predict(rec.pc);
        p.update(rec.pc, pr, rec.taken);
    }
}

/**
 * Run @p p and @p q over the rest of @p trace in lockstep: every
 * prediction and the final snapshots must be identical.
 */
void
expectLockstepToTheEnd(GradedPredictor& p, GradedPredictor& q,
                       TraceSource& trace)
{
    BranchRecord rec;
    while (trace.next(rec)) {
        const Prediction pa = p.predict(rec.pc);
        const Prediction pb = q.predict(rec.pc);
        ASSERT_EQ(pa.taken, pb.taken);
        ASSERT_EQ(pa.confidence, pb.confidence);
        ASSERT_EQ(pa.cls, pb.cls);
        p.update(rec.pc, pa, rec.taken);
        q.update(rec.pc, pb, rec.taken);
    }
    EXPECT_EQ(snapshotBytes(p), snapshotBytes(q));
}

/**
 * Drive @p spec halfway through a trace, checkpoint it, restore into a
 * fresh instance, and run both to the end in lockstep: every
 * prediction and the final snapshots must be identical.
 */
void
expectRoundTripContinuesBitIdentically(const std::string& spec_arg)
{
    SCOPED_TRACE(spec_arg);
    const std::string spec = canonicalizeSpec(spec_arg);
    auto p = makePredictor(spec);
    auto q = makePredictor(spec);
    auto trace = openOk("FP-1", 20000, 0);
    drive(*p, *trace, 10000);

    std::vector<uint8_t> blob;
    ASSERT_TRUE(succeeded(encodePredictorCheckpoint(*p, spec, blob)));

    // Encoding is a pure function of predictor state.
    std::vector<uint8_t> blob_again;
    ASSERT_TRUE(
        succeeded(encodePredictorCheckpoint(*p, spec, blob_again)));
    EXPECT_EQ(blob, blob_again);

    Checkpoint ck;
    ASSERT_TRUE(succeeded(decodeCheckpoint(blob, ck)));
    EXPECT_EQ(ck.kind, Checkpoint::Kind::Predictor);
    EXPECT_EQ(ck.spec, spec);
    ASSERT_TRUE(succeeded(restoreFromCheckpoint(ck, *q, spec)));
    expectLockstepToTheEnd(*p, *q, *trace);
}

/**
 * Restore one mid-stream blob of @p spec into an instance that served
 * another stream and into a fresh one: both must continue in lockstep
 * (the serving engine restores into recycled objects). A rejected
 * blob must leave the used instance equal to a fresh one.
 */
void
expectRestoreIntoUsedInstanceEqualsFresh(const std::string& spec_arg)
{
    SCOPED_TRACE(spec_arg);
    const std::string spec = canonicalizeSpec(spec_arg);
    auto used = makePredictor(spec);
    auto other = openOk("INT-1", 8000, 7);
    drive(*used, *other, 8000);

    auto src = makePredictor(spec);
    auto trace = openOk("FP-1", 20000, 0);
    drive(*src, *trace, 10000);
    std::vector<uint8_t> blob;
    ASSERT_TRUE(succeeded(encodePredictorCheckpoint(*src, spec, blob)));
    Checkpoint ck;
    ASSERT_TRUE(succeeded(decodeCheckpoint(blob, ck)));

    auto fresh = makePredictor(spec);
    ASSERT_TRUE(succeeded(restoreFromCheckpoint(ck, *used, spec)));
    ASSERT_TRUE(succeeded(restoreFromCheckpoint(ck, *fresh, spec)));
    EXPECT_EQ(snapshotBytes(*used), snapshotBytes(*fresh));
    expectLockstepToTheEnd(*used, *fresh, *trace);

    Checkpoint torn = ck;
    torn.payload.resize(torn.payload.size() / 2);
    EXPECT_TRUE(restoreFromCheckpoint(torn, *used, spec).failed());
    EXPECT_EQ(snapshotBytes(*used), snapshotBytes(*makePredictor(spec)));
}

TEST(CheckpointRoundTrip, TageFamilyContinuesBitIdentically)
{
    for (const char* spec :
         {"tage16k+sfc", "tage64k+prob7+adaptive+sfc", "ltage16k+sfc",
          "ltage64k+prob7+sfc", "tage64k+jrs",
          "tage64k+prob7+adaptive+jrs"})
        expectRoundTripContinuesBitIdentically(spec);
}

TEST(CheckpointRoundTrip, BimodalAndGshareContinueBitIdentically)
{
    expectRoundTripContinuesBitIdentically("bimodal");
    expectRoundTripContinuesBitIdentically("gshare");
    expectRoundTripContinuesBitIdentically("gshare+jrsg");
}

TEST(CheckpointRoundTrip, PerceptronAndOgehlContinueBitIdentically)
{
    // New in checkpoint version 2: the neural families' weight arenas
    // and (for O-GEHL) history ring + fold registers checkpoint like
    // everything else.
    expectRoundTripContinuesBitIdentically("perceptron+sfc");
    expectRoundTripContinuesBitIdentically("ogehl+sfc");
}

TEST(CheckpointRoundTrip, RestoreIntoAUsedInstanceEqualsAFreshOne)
{
    for (const char* spec :
         {"tage16k+sfc", "tage64k+prob7+adaptive+sfc", "ltage16k+sfc",
          "ltage64k+prob7+sfc", "tage64k+jrs", "gshare+jrsg",
          "tage64k+prob7+adaptive+jrs", "bimodal", "gshare",
          "perceptron+sfc", "ogehl+sfc"})
        expectRestoreIntoUsedInstanceEqualsFresh(spec);
}

TEST(CheckpointRoundTrip, StreamKindCarriesServingPosition)
{
    const std::string spec = canonicalizeSpec("bimodal");
    auto p = makePredictor(spec);
    std::vector<uint8_t> blob;
    ASSERT_TRUE(succeeded(
        encodeStreamCheckpoint(*p, spec, 42, "FP-1", 1234, blob)));
    Checkpoint ck;
    ASSERT_TRUE(succeeded(decodeCheckpoint(blob, ck)));
    EXPECT_EQ(ck.kind, Checkpoint::Kind::Stream);
    EXPECT_EQ(ck.spec, spec);
    EXPECT_EQ(ck.streamId, 42u);
    EXPECT_EQ(ck.trace, "FP-1");
    EXPECT_EQ(ck.consumed, 1234u);
    EXPECT_EQ(checkpointDigest(blob),
              fnv1a64(blob.data(), blob.size()));
}

/** Rewrite the trailing digest after deliberately patching a blob. */
void
refreshDigest(std::vector<uint8_t>& blob)
{
    ASSERT_GE(blob.size(), 8u);
    const uint64_t d = fnv1a64(blob.data(), blob.size() - 8);
    for (size_t i = 0; i < 8; ++i)
        blob[blob.size() - 8 + i] =
            static_cast<uint8_t>(d >> (8 * i));
}

std::vector<uint8_t>
someValidBlob()
{
    const std::string spec = canonicalizeSpec("bimodal");
    auto p = makePredictor(spec);
    std::vector<uint8_t> blob;
    EXPECT_TRUE(succeeded(encodePredictorCheckpoint(*p, spec, blob)));
    return blob;
}

TEST(CheckpointRejection, TruncatedBlobs)
{
    std::vector<uint8_t> blob = someValidBlob();
    Checkpoint ck;

    std::vector<uint8_t> tiny(blob.begin(), blob.begin() + 4);
    std::string error = failureDetail(decodeCheckpoint(tiny, ck));
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;

    blob.resize(blob.size() - 3);
    error = failureDetail(decodeCheckpoint(blob, ck));
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(CheckpointRejection, CorruptedByteFailsTheDigest)
{
    std::vector<uint8_t> blob = someValidBlob();
    blob[blob.size() / 2] ^= 0x40;
    Checkpoint ck;
    const std::string error = failureDetail(decodeCheckpoint(blob, ck));
    EXPECT_NE(error.find("digest mismatch"), std::string::npos)
        << error;
}

TEST(CheckpointRejection, WrongMagic)
{
    std::vector<uint8_t> blob = someValidBlob();
    blob[0] ^= 0xFF; // patch the magic, then re-sign the blob
    refreshDigest(blob);
    Checkpoint ck;
    const std::string error = failureDetail(decodeCheckpoint(blob, ck));
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(CheckpointRejection, UnknownVersion)
{
    std::vector<uint8_t> blob = someValidBlob();
    blob[4] = 99; // version field follows the u32 magic
    refreshDigest(blob);
    Checkpoint ck;
    const std::string error = failureDetail(decodeCheckpoint(blob, ck));
    EXPECT_NE(error.find("unsupported checkpoint version 99"),
              std::string::npos)
        << error;
}

TEST(CheckpointRejection, Version1BlobsAreRejectedOutright)
{
    // Version 2 changed the TAGE payload layout (packed 3-byte
    // entries), so a v1 blob must be refused at the framing layer —
    // never fed to a payload decoder expecting the new layout.
    std::vector<uint8_t> blob = someValidBlob();
    blob[4] = 1;
    refreshDigest(blob);
    Checkpoint ck;
    const std::string error = failureDetail(decodeCheckpoint(blob, ck));
    EXPECT_NE(error.find("unsupported checkpoint version 1"),
              std::string::npos)
        << error;
}

TEST(CheckpointRejection, UnknownKind)
{
    std::vector<uint8_t> blob = someValidBlob();
    blob[8] = 7; // kind field follows magic + version
    refreshDigest(blob);
    Checkpoint ck;
    const std::string error = failureDetail(decodeCheckpoint(blob, ck));
    EXPECT_NE(error.find("unknown checkpoint kind 7"),
              std::string::npos)
        << error;
}

TEST(CheckpointRejection, SpecMismatchLeavesTargetReset)
{
    const std::string src_spec = canonicalizeSpec("tage16k+sfc");
    const std::string dst_spec = canonicalizeSpec("tage64k+sfc");
    auto src = makePredictor(src_spec);
    auto dst = makePredictor(dst_spec);

    std::vector<uint8_t> blob;
    ASSERT_TRUE(
        succeeded(encodePredictorCheckpoint(*src, src_spec, blob)));
    Checkpoint ck;
    ASSERT_TRUE(succeeded(decodeCheckpoint(blob, ck)));

    const std::string error =
        failureDetail(restoreFromCheckpoint(ck, *dst, dst_spec));
    EXPECT_NE(error.find("was written for spec"), std::string::npos)
        << error;

    // The mismatched target must still be usable (reset, not torn).
    const Prediction p = dst->predict(0x4000);
    dst->update(0x4000, p, true);
}

/**
 * A decoded mid-stream checkpoint of @p spec after @p served branches
 * of FP-1, for patching by the rejection tests. Its payload is empty
 * when encoding or decoding fails, so callers check its size before
 * computing offsets into it.
 */
Checkpoint
servedCheckpoint(const std::string& spec, uint64_t served)
{
    auto src = makePredictor(spec);
    drive(*src, *openOk("FP-1", served, 0), served);
    std::vector<uint8_t> blob;
    EXPECT_TRUE(succeeded(encodePredictorCheckpoint(*src, spec, blob)));
    Checkpoint ck;
    EXPECT_TRUE(succeeded(decodeCheckpoint(blob, ck)));
    return ck;
}

/** @p ck with @p size little-endian bytes of @p v at payload @p at. */
Checkpoint
patched(Checkpoint ck, size_t at, uint64_t v, size_t size)
{
    for (size_t i = 0; i < size; ++i)
        ck.payload[at + i] = static_cast<uint8_t>(v >> (8 * i));
    return ck;
}

/**
 * Restoring @p ck into a used @p spec predictor must fail naming
 * @p what and leave the predictor equal to a fresh one.
 */
void
expectRejectedAndReset(const Checkpoint& ck, const std::string& spec,
                       const std::string& what)
{
    auto dst = makePredictor(spec);
    drive(*dst, *openOk("INT-1", 500, 0), 500);
    const Err e = restoreFromCheckpoint(ck, *dst, spec);
    EXPECT_EQ(e.code, ErrCode::Corrupt);
    EXPECT_NE(failureDetail(e).find(what), std::string::npos) << e.detail;
    EXPECT_EQ(snapshotBytes(*dst), snapshotBytes(*makePredictor(spec)));
}

TEST(CheckpointRejection, AgingCountdownOutsideOneToPeriod)
{
    // update() keeps the useful-bit aging countdown in [1, period]
    // (period 2^18 here); a blob carrying 0 or anything past the
    // period would silence aging for the rest of the stream.
    const std::string spec = canonicalizeSpec("tage64k+sfc");
    constexpr uint64_t kPeriod = uint64_t{1} << 18;
    constexpr uint64_t kServed = 1000;
    const Checkpoint ck = servedCheckpoint(spec, kServed);

    // The TAGE state ends with the countdown (u64); GradedTage follows
    // it with sinceBimMiss (i64), the sequence (u64) and a level (u8).
    ASSERT_GE(ck.payload.size(), (8 + 8 + 1) + 8);
    const size_t at = ck.payload.size() - (8 + 8 + 1) - 8;
    StateReader field(ck.payload.data() + at, 8);
    ASSERT_EQ(field.u64(), kPeriod - kServed);

    for (const uint64_t bad : {uint64_t{0}, kPeriod + 1, uint64_t{1} << 40}) {
        SCOPED_TRACE(bad);
        expectRejectedAndReset(patched(ck, at, bad, 8), spec,
                               "aging countdown");
    }
    for (const uint64_t good : {uint64_t{1}, kPeriod}) {
        auto dst = makePredictor(spec);
        EXPECT_TRUE(succeeded(
            restoreFromCheckpoint(patched(ck, at, good, 8), *dst, spec)))
            << good;
    }
}

TEST(CheckpointRejection, AdaptiveEpochCountsSaveStateNeverWrites)
{
    // saveState() writes the controller's open epoch with
    // highMiss <= highPred <= seen < epochLength (65536 here). A blob
    // past those bounds would close the next epoch early.
    const std::string spec = canonicalizeSpec("tage64k+prob7+adaptive+sfc");
    constexpr uint64_t kServed = 1000;
    const Checkpoint ck = servedCheckpoint(spec, kServed);

    // The controller closes the payload: log2(1/p) (u32), then seen,
    // highPred, highMiss and epochs (u64 each).
    ASSERT_GE(ck.payload.size(), 4 * 8);
    const size_t at = ck.payload.size() - 4 * 8;
    auto with_counts = [&](uint64_t seen, uint64_t high_pred,
                           uint64_t high_miss) {
        return patched(patched(patched(ck, at, seen, 8), at + 8,
                               high_pred, 8),
                       at + 16, high_miss, 8);
    };
    StateReader field(ck.payload.data() + at, 8);
    ASSERT_EQ(field.u64(), kServed);

    struct Counts {
        uint64_t seen, highPred, highMiss;
    };
    for (const Counts bad : {Counts{65536, 5, 9}, Counts{65536, 0, 0},
                             Counts{500, 5, 9}, Counts{500, 501, 0}}) {
        SCOPED_TRACE(testing::Message() << bad.seen << "/" << bad.highPred
                                        << "/" << bad.highMiss);
        expectRejectedAndReset(
            with_counts(bad.seen, bad.highPred, bad.highMiss), spec,
            "epoch counts");
    }
    auto dst = makePredictor(spec);
    EXPECT_TRUE(succeeded(restoreFromCheckpoint(
        with_counts(65535, 65535, 65535), *dst, spec)));
}

TEST(CheckpointRejection, BurstWindowCountOutsideZeroToWindow)
{
    // onResolve() keeps the medium-conf-bim count in [0, window] (8
    // here); it closes the payload ahead of the sequence (u64) and the
    // level (u8).
    const std::string spec = canonicalizeSpec("tage16k+sfc");
    const Checkpoint ck = servedCheckpoint(spec, 1000);
    ASSERT_GE(ck.payload.size(), (8 + 1) + 8);
    const size_t at = ck.payload.size() - (8 + 1) - 8;
    for (const int64_t bad : {int64_t{9}, int64_t{-1}, int64_t{1} << 32}) {
        SCOPED_TRACE(bad);
        expectRejectedAndReset(
            patched(ck, at, static_cast<uint64_t>(bad), 8), spec,
            "burst-window count");
    }
    for (const uint64_t good : {uint64_t{0}, uint64_t{8}}) {
        auto dst = makePredictor(spec);
        EXPECT_TRUE(succeeded(
            restoreFromCheckpoint(patched(ck, at, good, 8), *dst, spec)))
            << good;
    }
}

TEST(CheckpointRejection, LoopStateSaveStateNeverWrites)
{
    // An L-TAGE payload closes with the loop table (a 5-byte
    // fingerprint, then 64 entries of tag, pastIter, currentIter (u16
    // each), confidence, age and a dir|inUse<<1 flag byte) and the
    // 7-bit WITHLOOP counter (i64).
    const std::string spec = canonicalizeSpec("ltage16k+sfc");
    const Checkpoint ck = servedCheckpoint(spec, 1000);
    ASSERT_GE(ck.payload.size(), 8 + 64 * 9);
    const size_t with_loop = ck.payload.size() - 8;
    const size_t entry0 = with_loop - 64 * 9;
    auto with_entry = [&](uint16_t tag, uint16_t past, uint16_t current,
                          uint8_t conf, uint8_t age, uint8_t flags) {
        Checkpoint c = patched(ck, entry0, tag, 2);
        c = patched(c, entry0 + 2, past, 2);
        c = patched(c, entry0 + 4, current, 2);
        return patched(c, entry0 + 6,
                       conf | uint64_t{age} << 8 | uint64_t{flags} << 16, 3);
    };
    for (const int64_t bad : {int64_t{64}, int64_t{-65}})
        expectRejectedAndReset(
            patched(ck, with_loop, static_cast<uint64_t>(bad), 8), spec,
            "WITHLOOP");
    // 14-bit tags, 10-bit iteration counts below the 1023 that frees
    // an entry, 2-bit confidence, and free entries are blank.
    expectRejectedAndReset(with_entry(5, 10, 3, 3, 128, 4), spec,
                           "never writes");
    expectRejectedAndReset(with_entry(0x4000, 10, 3, 3, 128, 2), spec,
                           "never writes");
    expectRejectedAndReset(with_entry(5, 10, 1023, 0, 0, 2), spec,
                           "never writes");
    expectRejectedAndReset(with_entry(5, 1024, 3, 0, 0, 2), spec,
                           "never writes");
    expectRejectedAndReset(with_entry(5, 10, 3, 4, 0, 2), spec,
                           "never writes");
    expectRejectedAndReset(with_entry(0, 0, 0, 0, 1, 0), spec,
                           "never writes");

    auto dst = makePredictor(spec);
    EXPECT_TRUE(succeeded(restoreFromCheckpoint(
        patched(with_entry(0x3FFF, 1023, 1022, 3, 255, 3), with_loop,
                static_cast<uint64_t>(int64_t{-64}), 8),
        *dst, spec)));
}

TEST(CheckpointRejection, JrsCounterPastItsWidth)
{
    // A JRS payload closes with its 4-bit counters (u16 each).
    const std::string spec = canonicalizeSpec("gshare+jrs");
    const Checkpoint ck = servedCheckpoint(spec, 1000);
    ASSERT_GE(ck.payload.size(), 2);
    const size_t last = ck.payload.size() - 2;
    expectRejectedAndReset(patched(ck, last, 16, 2), spec,
                           "counter wider than ctrBits");
    auto dst = makePredictor(spec);
    EXPECT_TRUE(succeeded(
        restoreFromCheckpoint(patched(ck, last, 15, 2), *dst, spec)));
}

TEST(CheckpointRejection, PartsAndGeometriesMustMatch)
{
    // Raw restore() calls, past restoreFromCheckpoint()'s spec check:
    // the payload itself must refuse another configuration.
    const auto expect_refused = [](const char* from, const char* into,
                                   const std::string& what) {
        SCOPED_TRACE(std::string(from) + " into " + into);
        auto src = makePredictor(from);
        drive(*src, *openOk("FP-1", 1000, 0), 1000);
        const std::vector<uint8_t> blob = snapshotBytes(*src);
        auto dst = makePredictor(into);
        drive(*dst, *openOk("INT-1", 500, 0), 500);
        StateReader in(blob);
        std::string error;
        EXPECT_FALSE(dst->restore(in, error));
        EXPECT_NE(error.find(what), std::string::npos) << error;
        EXPECT_EQ(snapshotBytes(*dst), snapshotBytes(*makePredictor(into)));
    };
    expect_refused("tage16k+sfc", "ltage16k+sfc", "loop predictor");
    expect_refused("ltage16k+sfc", "tage16k+sfc", "loop predictor");
    expect_refused("gshare+jrs", "gshare+jrsg", "JRS state was written "
                                                "with a different geometry");

    LoopPredictor::Config narrow;
    narrow.iterBits = 4;
    StateWriter w;
    LoopPredictor(narrow).saveState(w);
    StateReader in(w.data());
    std::string error;
    EXPECT_FALSE(LoopPredictor().loadState(in, error));
    EXPECT_NE(error.find("loop predictor state was written with a "
                         "different geometry"),
              std::string::npos)
        << error;
}

TEST(CheckpointRejection, TrailingPayloadBytes)
{
    const std::string spec = canonicalizeSpec("bimodal");
    auto p = makePredictor(spec);
    std::vector<uint8_t> blob;
    ASSERT_TRUE(succeeded(encodePredictorCheckpoint(*p, spec, blob)));
    Checkpoint ck;
    ASSERT_TRUE(succeeded(decodeCheckpoint(blob, ck)));

    ck.payload.push_back(0xAB);
    auto q = makePredictor(spec);
    const std::string error =
        failureDetail(restoreFromCheckpoint(ck, *q, spec));
    EXPECT_NE(error.find("trailing bytes"), std::string::npos)
        << error;
}

TEST(StateIo, U16sWritesLittleEndianLikeU16)
{
    const uint16_t values[] = {0x1234, 0xABCD};
    StateWriter bulk;
    bulk.u16s(values, 2);
    EXPECT_EQ(bulk.data(), (std::vector<uint8_t>{0x34, 0x12, 0xCD, 0xAB}));
    StateWriter one_by_one;
    for (const uint16_t v : values)
        one_by_one.u16(v);
    EXPECT_EQ(bulk.data(), one_by_one.data());

    uint16_t back[2] = {};
    StateReader in(bulk.data());
    EXPECT_TRUE(in.u16s(back, 2));
    EXPECT_TRUE(in.exhausted());
    EXPECT_EQ(back[0], 0x1234);
    EXPECT_EQ(back[1], 0xABCD);
}

TEST(StateIo, U16sOfZeroCountMovesNothing)
{
    StateWriter w;
    w.u16s(nullptr, 0);
    EXPECT_EQ(w.size(), 0u);
    w.u8(7);
    StateReader in(w.data());
    EXPECT_TRUE(in.u16s(nullptr, 0));
    EXPECT_EQ(in.u8(), 7);
    EXPECT_TRUE(in.exhausted());
}

TEST(StateIo, U16sUnderrunLatchesTheErrorAndZeroFills)
{
    const std::vector<uint8_t> three = {0x34, 0x12, 0x56};
    StateReader in(three);
    uint16_t out[2] = {0xFFFF, 0xFFFF};
    EXPECT_FALSE(in.u16s(out, 2));
    EXPECT_FALSE(in.ok());
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(out[1], 0);
    // Nothing was consumed, and later reads stay latched at zero.
    EXPECT_EQ(in.remaining(), 3u);
    EXPECT_EQ(in.u8(), 0);
}

TEST(StateIo, ScalarsWriteTheBytesOfPerByteLittleEndianWrites)
{
    // The reference: every value split into bytes, lowest first.
    const auto le = [](std::vector<uint8_t>& out, uint64_t v, int width) {
        for (int i = 0; i < width; ++i)
            out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    };
    StateWriter w;
    w.u8(0x5A);
    w.u16(0xBEEF);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFULL);
    w.i64(-2);
    std::vector<uint8_t> want;
    le(want, 0x5A, 1);
    le(want, 0xBEEF, 2);
    le(want, 0xDEADBEEF, 4);
    le(want, 0x0123456789ABCDEFULL, 8);
    le(want, static_cast<uint64_t>(int64_t{-2}), 8);
    EXPECT_EQ(w.data(), want);

    StateReader in(w.data());
    EXPECT_EQ(in.u8(), 0x5A);
    EXPECT_EQ(in.u16(), 0xBEEF);
    EXPECT_EQ(in.u32(), 0xDEADBEEFu);
    EXPECT_EQ(in.u64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(in.i64(), -2);
    EXPECT_TRUE(in.exhausted());

    // A scalar that runs past the end reads 0 and consumes nothing.
    StateReader short_read(want.data(), 3);
    EXPECT_EQ(short_read.u32(), 0u);
    EXPECT_FALSE(short_read.ok());
    EXPECT_EQ(short_read.remaining(), 3u);
}

/**
 * The ring encoding written one outcome at a time, the way the
 * predictors wrote it before GlobalHistory::saveState: a u32 count,
 * then h[count - 1] ... h[0] packed LSB first.
 */
std::vector<uint8_t>
perBitRingBytes(const GlobalHistory& h)
{
    const size_t n = h.capacity() + 1;
    std::vector<uint8_t> out;
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(n >> (8 * i)));
    uint8_t acc = 0;
    for (size_t i = 0; i < n; ++i) {
        if (h[n - 1 - i] != 0)
            acc |= static_cast<uint8_t>(1u << (i % 8));
        if (i % 8 == 7 || i == n - 1) {
            out.push_back(acc);
            acc = 0;
        }
    }
    return out;
}

TEST(HistoryState, RoundTripsAtEveryCapacityAndHeadPosition)
{
    XorShift128Plus rng(11);
    // Rings of 1, 2, 4, 8, 16, 128 and 512 outcomes.
    for (const size_t capacity : {0, 1, 3, 7, 8, 100, 300}) {
        GlobalHistory h(capacity);
        const size_t n = h.capacity() + 1;
        // One push per step walks the head through every slot.
        for (size_t step = 0; step < n; ++step) {
            SCOPED_TRACE("capacity " + std::to_string(capacity) +
                         " step " + std::to_string(step));
            h.push((rng.next() & 1) != 0);
            StateWriter w;
            h.saveState(w);
            ASSERT_EQ(w.data(), perBitRingBytes(h));

            GlobalHistory back(capacity);
            for (size_t k = 0; k <= step % 5; ++k)
                back.push(true);
            StateReader in(w.data());
            ASSERT_TRUE(back.loadState(in));
            ASSERT_TRUE(in.exhausted());
            // Equal now, and still equal after both take one more.
            for (int more = 0; more < 2; ++more) {
                for (size_t i = 0; i < n; ++i)
                    ASSERT_EQ(back[i], h[i]) << "index " << i;
                GlobalHistory ahead = h;
                ahead.push(true);
                back.push(true);
                h = ahead;
            }
        }
    }
}

TEST(HistoryState, ATruncatedOrResizedRingFailsAndIsCleared)
{
    GlobalHistory h(100);
    for (int i = 0; i < 77; ++i)
        h.push(i % 3 != 0);
    StateWriter w;
    h.saveState(w);

    const std::vector<uint8_t> cut(w.data().begin(), w.data().end() - 1);
    GlobalHistory back(100);
    for (int i = 0; i < 9; ++i)
        back.push(true);
    StateReader in(cut);
    EXPECT_FALSE(back.loadState(in));
    EXPECT_FALSE(in.ok());
    for (size_t i = 0; i <= back.capacity(); ++i)
        ASSERT_EQ(back[i], 0) << "index " << i;

    // A ring of another capacity is refused with the reader still ok,
    // so the caller can tell it from truncation.
    GlobalHistory wider(300);
    wider.push(true);
    StateReader whole(w.data());
    EXPECT_FALSE(wider.loadState(whole));
    EXPECT_TRUE(whole.ok());
    for (size_t i = 0; i <= wider.capacity(); ++i)
        ASSERT_EQ(wider[i], 0) << "index " << i;
}

TEST(CheckpointRejection, TruncatedHistoryRingLeavesThePredictorReset)
{
    const auto drive = [](TagePredictor& p, uint64_t seed) {
        XorShift128Plus rng(seed);
        for (int i = 0; i < 3000; ++i) {
            const GoldenBranch br = goldenBranch(rng, i);
            const TagePrediction q = p.predict(br.pc);
            p.update(br.pc, q, br.taken);
        }
    };
    const TageConfig cfg = TageConfig::small16K();
    const size_t m = static_cast<size_t>(cfg.numTaggedTables());
    TagePredictor donor(cfg);
    drive(donor, 1);
    StateWriter w;
    donor.saveState(w);
    const std::vector<uint8_t>& blob = w.data();

    // After the ring come the path history (u32), a fold triple per
    // table (3 x u32), USE_ALT_ON_NA (i64), the LFSR and its seed
    // (2 x u16) and three u64 counters.
    const size_t after = 4 + 12 * m + 8 + 2 + 2 + 24;
    const size_t ring =
        GlobalHistory(static_cast<size_t>(cfg.maxHistoryLength()) + 2)
            .capacity() +
        1;
    // The ring's u32 count sits right before its ring / 8 bytes.
    ASSERT_GT(blob.size(), after + ring / 8 + 4);
    ASSERT_EQ(loadLe<uint32_t>(blob.data() + blob.size() - after -
                               ring / 8 - 4),
              ring);
    // Keep all but the ring's last byte.
    const std::vector<uint8_t> cut(
        blob.begin(),
        blob.begin() + static_cast<std::ptrdiff_t>(blob.size() - after - 1));

    TagePredictor used(cfg);
    drive(used, 2);
    StateReader in(cut);
    std::string error;
    EXPECT_FALSE(used.loadState(in, error));
    EXPECT_FALSE(in.ok());
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
    StateWriter got;
    StateWriter want;
    used.saveState(got);
    TagePredictor(cfg).saveState(want);
    EXPECT_EQ(got.data(), want.data());
}

TEST(CheckpointFiles, WriteReadRoundTripAndNaming)
{
    EXPECT_EQ(streamCheckpointFileName(7), "stream-7.tcsp");

    const auto dir = std::filesystem::temp_directory_path() /
                     "tagecon_ckpt_file_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "stream-0.tcsp").string();

    const std::vector<uint8_t> blob = someValidBlob();
    EXPECT_FALSE(checkpointFileExists(path));
    ASSERT_TRUE(succeeded(writeCheckpointFile(path, blob)));
    EXPECT_TRUE(checkpointFileExists(path));

    std::vector<uint8_t> back;
    ASSERT_TRUE(succeeded(readCheckpointFile(path, back)));
    EXPECT_EQ(back, blob);

    std::vector<uint8_t> missing;
    EXPECT_TRUE(
        readCheckpointFile((dir / "nope.tcsp").string(), missing).failed());
    std::filesystem::remove_all(dir);
}

TEST(CheckpointFiles, TornWriteNeverYieldsALoadableCheckpoint)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "tagecon_ckpt_torn_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "stream-0.tcsp").string();
    const std::vector<uint8_t> blob = someValidBlob();

    // A crash mid-write (the ckpt.write failpoint models it as a torn
    // write) must leave only the temp file behind: the final path is
    // written atomically via rename, so it either has the whole blob
    // or does not exist.
    {
        failpoints::ScopedFaults faults("ckpt.write");
        ASSERT_TRUE(faults.ok());
        const Err e = writeCheckpointFile(path, blob);
        EXPECT_EQ(e.code, ErrCode::Io);
        EXPECT_EQ(e.site, "ckpt.write");
    }
    EXPECT_FALSE(checkpointFileExists(path));
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(staleCheckpointTempExists(path));

    // The torn remnant is a strict prefix and must never decode.
    const std::string tmp = checkpointTempName(path);
    ASSERT_TRUE(std::filesystem::exists(tmp));
    EXPECT_LT(std::filesystem::file_size(tmp), blob.size());
    std::vector<uint8_t> torn;
    ASSERT_TRUE(succeeded(readCheckpointFile(tmp, torn)));
    Checkpoint ck;
    EXPECT_TRUE(decodeCheckpoint(torn, ck).failed());

    // A later successful write replaces the stale temp and clears the
    // stale marker.
    ASSERT_TRUE(writeCheckpointFile(path, blob).ok());
    EXPECT_TRUE(checkpointFileExists(path));
    EXPECT_FALSE(std::filesystem::exists(tmp));
    EXPECT_FALSE(staleCheckpointTempExists(path));

    std::vector<uint8_t> back;
    ASSERT_TRUE(succeeded(readCheckpointFile(path, back)));
    EXPECT_EQ(back, blob);
    std::filesystem::remove_all(dir);
}

TEST(CheckpointErrors, TypedResultsCarryCodeAndSite)
{
    // Missing file: NotFound at ckpt.read — the serving engine treats
    // this as a cold start, so the class matters, not just the text.
    std::vector<uint8_t> out;
    const Err read_err =
        readCheckpointFile("/nonexistent/stream-0.tcsp", out);
    EXPECT_EQ(read_err.code, ErrCode::NotFound);
    EXPECT_EQ(read_err.site, "ckpt.read");
    EXPECT_NE(read_err.message().find("[not-found]"),
              std::string::npos);

    // An encode fault: ckpt.encode.
    {
        failpoints::ScopedFaults faults("ckpt.encode");
        ASSERT_TRUE(faults.ok());
        const std::string spec = canonicalizeSpec("gshare+jrs");
        std::vector<uint8_t> blob;
        const Err enc_err =
            encodePredictorCheckpoint(*makePredictor(spec), spec, blob);
        EXPECT_TRUE(enc_err.failed());
        EXPECT_EQ(enc_err.site, "ckpt.encode");
    }

    // Truncation vs corruption at ckpt.decode: a prefix shorter than
    // the minimal header is Truncated; a longer torn prefix fails the
    // trailing digest first and is Corrupt.
    const std::vector<uint8_t> good = someValidBlob();
    Checkpoint ck;
    const Err tiny_err = decodeCheckpoint(good.data(), 16, ck);
    EXPECT_EQ(tiny_err.code, ErrCode::Truncated);
    EXPECT_EQ(tiny_err.site, "ckpt.decode");
    const Err torn_err =
        decodeCheckpoint(good.data(), good.size() / 2, ck);
    EXPECT_EQ(torn_err.code, ErrCode::Corrupt);
    EXPECT_EQ(torn_err.site, "ckpt.decode");
}

} // namespace
} // namespace tagecon
