/**
 * @file
 * Serving-engine tests: the bit-identity contract — per-stream results
 * are a pure function of the stream population and the spec, whatever
 * the jobs / shards / pool / batch execution knobs — plus the
 * checkpoint-resume path (a warm-started serve finishes in the same
 * state as one that never stopped, down to the checkpoint file bytes),
 * stream-population builders, and option/input validation.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unordered_set>
#include <vector>

#include "serve/checkpoint.hpp"
#include "serve/serving_engine.hpp"
#include "sim/registry.hpp"
#include "sim/trace_registry.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"

namespace tagecon {
namespace {

/** Golden-ratio per-stream salt used by StreamSet::roundRobin. */
constexpr uint64_t kSaltStep = 0x9E3779B97F4A7C15ULL;

std::vector<std::string>
twoCbp1Traces()
{
    std::vector<std::string> traces;
    std::string error;
    EXPECT_TRUE(resolveTraceSpecs({"cbp1"}, traces, error)) << error;
    EXPECT_GE(traces.size(), 2u);
    traces.resize(2);
    return traces;
}

/** Fresh empty scratch directory under the system temp dir. */
std::filesystem::path
scratchDir(const std::string& tag)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("tagecon_serve_test_" + tag);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Exact equality of the deterministic part of two serve results. */
void
expectSameServe(const ServeResult& a, const ServeResult& b)
{
    EXPECT_EQ(a.totalBranches, b.totalBranches);
    EXPECT_EQ(a.streamsServed, b.streamsServed);
    EXPECT_EQ(a.storageBits, b.storageBits);
    EXPECT_EQ(a.aggregate.totalPredictions(),
              b.aggregate.totalPredictions());
    EXPECT_EQ(a.aggregate.totalMispredictions(),
              b.aggregate.totalMispredictions());
    EXPECT_EQ(a.confusion.highCorrect(), b.confusion.highCorrect());
    EXPECT_EQ(a.confusion.highWrong(), b.confusion.highWrong());
    ASSERT_EQ(a.perStream.size(), b.perStream.size());
    for (size_t i = 0; i < a.perStream.size(); ++i) {
        const StreamResult& x = a.perStream[i];
        const StreamResult& y = b.perStream[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.trace, y.trace);
        EXPECT_EQ(x.branchesServed, y.branchesServed);
        EXPECT_EQ(x.stateDigest, y.stateDigest) << "stream " << x.id;
        // Config-invariant per-stream metrics: allocations ride in
        // snapshots across evictions, checkpoint blobs are
        // bit-identical across configs by contract.
        EXPECT_EQ(x.allocations, y.allocations) << "stream " << x.id;
        EXPECT_EQ(x.checkpointBytes, y.checkpointBytes)
            << "stream " << x.id;
        for (const auto c : kAllPredictionClasses) {
            EXPECT_EQ(x.stats.predictions(c), y.stats.predictions(c));
            EXPECT_EQ(x.stats.mispredictions(c),
                      y.stats.mispredictions(c));
        }
    }
}

ServeResult
serveOrDie(const ServeOptions& opts,
           const std::vector<StreamDesc>& streams)
{
    ServingEngine engine(opts);
    ServeResult result;
    std::string error;
    EXPECT_TRUE(engine.serve(streams, result, error)) << error;
    return result;
}

TEST(StreamSet, RoundRobinAssignsTracesIdsAndDistinctSalts)
{
    const auto streams =
        StreamSet::roundRobin(7, {"A", "B"}, 100, 5);
    ASSERT_EQ(streams.size(), 7u);
    std::unordered_set<uint64_t> salts;
    for (uint64_t i = 0; i < streams.size(); ++i) {
        EXPECT_EQ(streams[i].id, i);
        EXPECT_EQ(streams[i].trace, i % 2 == 0 ? "A" : "B");
        EXPECT_EQ(streams[i].branches, 100u);
        salts.insert(streams[i].seedSalt);
    }
    // Stream 0 keeps the canonical seed; everyone else is perturbed.
    EXPECT_EQ(streams[0].seedSalt, 5u);
    EXPECT_EQ(streams[3].seedSalt, 5u ^ (3 * kSaltStep));
    EXPECT_EQ(salts.size(), streams.size());
}

TEST(ServingEngine, ResultsIdenticalAtAnyJobsShardsPoolBatch)
{
    const auto streams =
        StreamSet::roundRobin(26, twoCbp1Traces(), 1200, 0);

    ServeOptions base;
    base.spec = "tage16k+sfc";
    base.jobs = 1;
    base.shards = 1;
    base.poolPerShard = 0; // unbounded: no evictions at all
    base.batch = 1u << 20; // one turn per stream
    base.computeDigests = true;
    const ServeResult reference = serveOrDie(base, streams);
    EXPECT_EQ(reference.streamsServed, 26u);
    EXPECT_EQ(reference.totalBranches, 26u * 1200u);
    // A TAGE spec allocates from the first mispredictions on; the
    // per-stream counts and blob sizes must survive every pool/batch
    // permutation below (expectSameServe compares them).
    EXPECT_GT(reference.totalAllocations, 0u);
    for (const auto& s : reference.perStream)
        EXPECT_GT(s.checkpointBytes, 0u) << "stream " << s.id;

    ServeOptions threaded = base;
    threaded.jobs = 4;
    threaded.shards = 7;
    threaded.poolPerShard = 2; // constant eviction/restore churn
    threaded.batch = 57;
    expectSameServe(reference, serveOrDie(threaded, streams));

    ServeOptions tiny_pool = base;
    tiny_pool.jobs = 2;
    tiny_pool.shards = 3;
    tiny_pool.poolPerShard = 1;
    tiny_pool.batch = 512;
    expectSameServe(reference, serveOrDie(tiny_pool, streams));
}

TEST(ServingEngine, CheckpointResumeMatchesUninterruptedServe)
{
    const auto traces = twoCbp1Traces();
    const auto dir_half = scratchDir("half");
    const auto dir_resumed = scratchDir("resumed");
    const auto dir_control = scratchDir("control");

    ServeOptions opts;
    opts.spec = "tage16k+sfc";
    opts.jobs = 2;
    opts.poolPerShard = 2;
    opts.batch = 128;
    opts.computeDigests = true;

    // Phase 1: serve the first 450 branches, parking every stream.
    opts.checkpointDir = dir_half.string();
    serveOrDie(opts, StreamSet::roundRobin(6, traces, 450, 0));

    // Phase 2: same streams to their full 900 branches, warm-started.
    const auto full = StreamSet::roundRobin(6, traces, 900, 0);
    opts.restoreDir = dir_half.string();
    opts.checkpointDir = dir_resumed.string();
    const ServeResult resumed = serveOrDie(opts, full);
    EXPECT_EQ(resumed.streamsRestored, 6u);
    for (const auto& s : resumed.perStream) {
        EXPECT_EQ(s.resumedAt, 450u);
        EXPECT_EQ(s.branchesServed, 450u);
    }

    // Control: the same 900 branches served in one uninterrupted run.
    opts.restoreDir.clear();
    opts.checkpointDir = dir_control.string();
    const ServeResult control = serveOrDie(opts, full);

    // Final predictor state must agree to the blob byte.
    for (size_t i = 0; i < full.size(); ++i) {
        EXPECT_EQ(resumed.perStream[i].stateDigest,
                  control.perStream[i].stateDigest)
            << "stream " << full[i].id;
        const std::string name =
            streamCheckpointFileName(full[i].id);
        std::vector<uint8_t> a, b;
        const Err ea = readCheckpointFile((dir_resumed / name).string(), a);
        ASSERT_TRUE(ea.ok()) << ea.message();
        const Err eb = readCheckpointFile((dir_control / name).string(), b);
        ASSERT_TRUE(eb.ok()) << eb.message();
        EXPECT_EQ(a, b) << name;
    }

    std::filesystem::remove_all(dir_half);
    std::filesystem::remove_all(dir_resumed);
    std::filesystem::remove_all(dir_control);
}

/**
 * The scalar oracle for one stream: a plain predict/update loop over a
 * fresh source, folded exactly as a serve folds it, plus the digest of
 * the stream checkpoint a serve with digests on would encode.
 */
StreamResult
scalarStream(const StreamDesc& d, const std::string& spec,
             bool with_digest)
{
    StreamResult r;
    auto opened = openTraceSource(d.trace, d.branches, d.seedSalt);
    EXPECT_TRUE(opened.ok()) << opened.error().message();
    if (!opened.ok())
        return r;
    const auto trace = opened.take();
    auto predictor = makePredictor(spec);
    BranchRecord rec;
    while (trace->next(rec)) {
        const Prediction p = predictor->predict(rec.pc);
        const bool mispredicted = p.taken != rec.taken;
        r.stats.record(p.cls, mispredicted,
                       uint64_t{rec.instructionsBefore} + 1);
        r.confusion.record(p.confidence == ConfidenceLevel::High,
                           !mispredicted);
        predictor->update(rec.pc, p, rec.taken);
        ++r.branchesServed;
    }
    r.allocations = predictor->allocations();
    if (with_digest) {
        std::vector<uint8_t> blob;
        const Err e = encodeStreamCheckpoint(
            *predictor, canonicalizeSpec(spec), d.id, d.trace,
            r.branchesServed, blob);
        EXPECT_TRUE(e.ok()) << e.message();
        r.stateDigest = checkpointDigest(blob);
    }
    return r;
}

/** Serve @p streams and check every stream against scalarStream(). */
void
expectServeMatchesScalarOracle(const ServeOptions& opts,
                               const std::vector<StreamDesc>& streams)
{
    const ServeResult served = serveOrDie(opts, streams);
    ASSERT_EQ(served.perStream.size(), streams.size());
    for (size_t i = 0; i < streams.size(); ++i) {
        const StreamResult& got = served.perStream[i];
        const StreamResult want =
            scalarStream(streams[i], opts.spec, opts.computeDigests);
        EXPECT_EQ(got.status, StreamStatus::Ok) << got.fault.message();
        EXPECT_EQ(got.branchesServed, want.branchesServed);
        for (const auto c : kAllPredictionClasses) {
            EXPECT_EQ(got.stats.predictions(c), want.stats.predictions(c))
                << "stream " << got.id;
            EXPECT_EQ(got.stats.mispredictions(c),
                      want.stats.mispredictions(c))
                << "stream " << got.id;
        }
        EXPECT_EQ(got.stats.instructions(), want.stats.instructions());
        EXPECT_EQ(got.confusion.highCorrect(), want.confusion.highCorrect());
        EXPECT_EQ(got.confusion.highWrong(), want.confusion.highWrong());
        EXPECT_EQ(got.confusion.lowCorrect(), want.confusion.lowCorrect());
        EXPECT_EQ(got.confusion.lowWrong(), want.confusion.lowWrong());
        EXPECT_EQ(got.allocations, want.allocations) << "stream " << got.id;
        EXPECT_EQ(got.stateDigest, want.stateDigest) << "stream " << got.id;
    }
}

TEST(ServingEngine, EveryStreamMatchesTheScalarOracle)
{
    // Turns of 97 end mid-chunk, 13 shards with a pool of 1 or 2 park
    // predictors between turns and restore them into the object the
    // shard evicted last (so one stream continues on another's used
    // predictor), an unbounded pool (0) keeps each stream's predictor
    // resident across all of its turns, and 4 workers interleave the
    // shards: none of it may move a bit against the plain loop, in any
    // family.
    const auto streams =
        StreamSet::roundRobin(60, twoCbp1Traces(), 1500, 0);
    for (const char* spec :
         {"tage16k+sfc", "tage64k+prob7+adaptive+sfc", "ltage16k+sfc",
          "tage16k+jrs", "gshare+jrsg", "bimodal", "gshare",
          "perceptron+sfc", "ogehl+sfc"}) {
        for (const unsigned pool : {0u, 1u, 2u}) {
            SCOPED_TRACE(std::string(spec) + " pool " +
                         std::to_string(pool));
            ServeOptions opts;
            opts.spec = spec;
            opts.jobs = 4;
            opts.shards = 13;
            opts.poolPerShard = pool;
            opts.batch = 97;
            opts.computeDigests = true;
            expectServeMatchesScalarOracle(opts, streams);
        }
    }
}

TEST(ServingEngine, RejectsBatchOfZero)
{
    // Regression guard: --batch reaches the engine through a
    // range-checked CLI parse, but the engine must also reject a zero
    // batch on its own — a turn that serves no branches would never
    // finish a stream.
    ServeOptions opts;
    opts.spec = "tage16k+sfc";
    opts.batch = 0;
    std::string error;
    EXPECT_FALSE(ServingEngine(opts).validate(&error));
    EXPECT_NE(error.find("batch size must be at least 1"),
              std::string::npos)
        << error;
}

TEST(ServingEngine, RejectsBadOptionsAndDuplicateIds)
{
    ServeOptions opts;
    opts.spec = "no-such-predictor";
    std::string error;
    EXPECT_FALSE(ServingEngine(opts).validate(&error));

    opts.spec = "tage16k+sfc";
    EXPECT_TRUE(ServingEngine(opts).validate(&error)) << error;

    std::vector<StreamDesc> dup(2);
    dup[0] = {3, "FP-1", 100, 0};
    dup[1] = {3, "FP-2", 100, 0};
    ServeResult result;
    ServingEngine engine(opts);
    EXPECT_FALSE(engine.serve(dup, result, error));
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(ServingEngine, StorageBitsAreThoseOfTheSpecsPredictor)
{
    const auto streams = StreamSet::roundRobin(6, twoCbp1Traces(), 300, 0);
    for (const char* spec : {"tage16k+sfc", "tage16k+jrs"}) {
        SCOPED_TRACE(spec);
        ServeOptions opts;
        opts.spec = spec;
        opts.poolPerShard = 1;
        const ServeResult result = serveOrDie(opts, streams);
        const auto probe = tryMakePredictor(spec, nullptr);
        ASSERT_TRUE(probe);
        EXPECT_EQ(result.storageBits, probe->storageBits());
    }
}

TEST(ServingEngine, UnboundedPoolServesWithoutDigests)
{
    // Without parking, checkpointing or digests no stream is ever
    // snapshotted, and the state digest stays unset.
    ServeOptions opts;
    opts.spec = "gshare+jrs";
    opts.poolPerShard = 0;
    opts.jobs = 2;
    const auto streams =
        StreamSet::roundRobin(8, twoCbp1Traces(), 500, 0);
    const ServeResult result = serveOrDie(opts, streams);
    EXPECT_EQ(result.streamsServed, 8u);
    EXPECT_EQ(result.totalBranches, 8u * 500u);
    for (const auto& s : result.perStream)
        EXPECT_EQ(s.stateDigest, 0u);
}

/** Swallow quarantine warn() lines so test output stays readable. */
class QuietLog
{
  public:
    QuietLog() { prev_ = setLogStream(&sink_); }
    ~QuietLog() { setLogStream(prev_); }

    std::string text() const { return sink_.str(); }

  private:
    std::ostringstream sink_;
    std::ostream* prev_ = nullptr;
};

TEST(ServingEngine, QuarantineIsolatesOneStreamAndIsJobsInvariant)
{
    QuietLog quiet;
    const auto streams =
        StreamSet::roundRobin(10, twoCbp1Traces(), 800, 0);

    ServeOptions opts;
    opts.spec = "tage16k+sfc";
    opts.batch = 128;
    opts.computeDigests = true;

    // Control: the same population with no faults armed.
    opts.jobs = 2;
    const ServeResult clean = serveOrDie(opts, streams);

    // Fault stream 6's trace open; everything else must not notice.
    ServeResult at_jobs[2];
    unsigned jobs_values[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        failpoints::ScopedFaults faults(
            "trace.open:key=6,err=not-found");
        ASSERT_TRUE(faults.ok());
        opts.jobs = jobs_values[i];
        at_jobs[i] = serveOrDie(opts, streams);
    }
    expectSameServe(at_jobs[0], at_jobs[1]);
    EXPECT_EQ(at_jobs[0].streamsQuarantined, 1u);
    EXPECT_EQ(at_jobs[1].streamsQuarantined, 1u);

    const ServeResult& faulty = at_jobs[0];
    EXPECT_EQ(faulty.streamsServed, 9u);
    ASSERT_EQ(faulty.perStream.size(), clean.perStream.size());
    for (size_t i = 0; i < faulty.perStream.size(); ++i) {
        const StreamResult& f = faulty.perStream[i];
        if (f.id == 6) {
            EXPECT_EQ(f.status, StreamStatus::Quarantined);
            EXPECT_EQ(f.fault.code, ErrCode::NotFound);
            EXPECT_EQ(f.fault.site, "trace.open");
            EXPECT_EQ(f.branchesServed, 0u);
            continue;
        }
        // Survivors are bit-identical to the fault-free run.
        EXPECT_EQ(f.status, StreamStatus::Ok);
        EXPECT_EQ(f.branchesServed,
                  clean.perStream[i].branchesServed);
        EXPECT_EQ(f.stateDigest, clean.perStream[i].stateDigest)
            << "stream " << f.id;
    }
    // The aggregate is exactly the clean aggregate minus stream 6.
    EXPECT_EQ(faulty.totalBranches,
              clean.totalBranches - clean.perStream[6].branchesServed);
    EXPECT_NE(quiet.text().find("stream 6 quarantined"),
              std::string::npos);
}

TEST(ServingEngine, CheckpointReadFaultQuarantinesAtAnyJobs)
{
    QuietLog quiet;
    const auto dir = scratchDir("ckpt_read_fault");
    const auto streams =
        StreamSet::roundRobin(6, twoCbp1Traces(), 600, 0);

    ServeOptions opts;
    opts.spec = "tage16k+sfc";
    opts.jobs = 2;
    opts.batch = 100;
    opts.computeDigests = true;

    // Phase 1: serve half and checkpoint.
    opts.checkpointDir = dir.string();
    serveOrDie(opts, StreamSet::roundRobin(6, twoCbp1Traces(), 300, 0));
    opts.checkpointDir.clear();

    // Phase 2 control: clean warm-started serve.
    opts.restoreDir = dir.string();
    const ServeResult clean = serveOrDie(opts, streams);
    EXPECT_EQ(clean.streamsRestored, 6u);

    // Phase 2 with stream 2's checkpoint read failing persistently:
    // the retry budget is spent, then the stream is quarantined —
    // identically at jobs=1 and jobs=4.
    ServeResult at_jobs[2];
    unsigned jobs_values[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        failpoints::ScopedFaults faults("ckpt.read:key=2");
        ASSERT_TRUE(faults.ok());
        ServeOptions faulted = opts;
        faulted.jobs = jobs_values[i];
        faulted.retryAttempts = 3;
        faulted.retrySleep = [](uint64_t) {}; // no wall-time in tests
        at_jobs[i] = serveOrDie(faulted, streams);
    }
    expectSameServe(at_jobs[0], at_jobs[1]);

    for (const ServeResult& r : at_jobs) {
        EXPECT_EQ(r.streamsQuarantined, 1u);
        EXPECT_EQ(r.streamsServed, 5u);
        EXPECT_EQ(r.totalRetries, 2u); // 3 attempts = 2 retries
        const StreamResult& s = r.perStream[2];
        EXPECT_EQ(s.status, StreamStatus::Quarantined);
        EXPECT_EQ(s.fault.code, ErrCode::Io);
        EXPECT_EQ(s.fault.site, "ckpt.read");
        EXPECT_EQ(s.retries, 2u);
    }

    // Survivors match the clean warm-started run exactly.
    for (size_t i = 0; i < streams.size(); ++i) {
        if (i == 2)
            continue;
        EXPECT_EQ(at_jobs[0].perStream[i].stateDigest,
                  clean.perStream[i].stateDigest)
            << "stream " << i;
    }

    std::filesystem::remove_all(dir);
}

TEST(ServingEngine, TransientIoFaultIsRetriedToSuccess)
{
    QuietLog quiet;
    const auto dir = scratchDir("ckpt_retry_ok");
    ServeOptions opts;
    opts.spec = "tage16k+sfc";
    opts.jobs = 1;
    opts.batch = 100;
    opts.computeDigests = true;

    opts.checkpointDir = dir.string();
    serveOrDie(opts, StreamSet::roundRobin(4, twoCbp1Traces(), 200, 0));
    opts.checkpointDir.clear();

    const auto streams =
        StreamSet::roundRobin(4, twoCbp1Traces(), 400, 0);
    opts.restoreDir = dir.string();
    const ServeResult clean = serveOrDie(opts, streams);

    // Stream 1's first two checkpoint reads fail with retryable Io;
    // the third attempt succeeds. Backoff delays go through the
    // injected clock and double each attempt.
    std::vector<uint64_t> delays;
    {
        failpoints::ScopedFaults faults("ckpt.read:key=1,count=2");
        ASSERT_TRUE(faults.ok());
        ServeOptions retried = opts;
        retried.retryAttempts = 3;
        retried.retryBaseDelayNs = 1000;
        retried.retrySleep = [&delays](uint64_t ns) {
            delays.push_back(ns);
        };
        const ServeResult r = serveOrDie(retried, streams);
        EXPECT_EQ(r.streamsQuarantined, 0u);
        EXPECT_EQ(r.streamsServed, 4u);
        EXPECT_EQ(r.totalRetries, 2u);
        EXPECT_EQ(r.perStream[1].status, StreamStatus::Ok);
        EXPECT_EQ(r.perStream[1].retries, 2u);
        // Apart from the retry counter, the run is bit-identical to
        // the fault-free one.
        expectSameServe(clean, r);
    }
    EXPECT_EQ(delays, (std::vector<uint64_t>{1000, 2000}));

    std::filesystem::remove_all(dir);
}

TEST(ServingEngine, StrictModeFailsFastOnTheFirstStreamError)
{
    QuietLog quiet;
    failpoints::ScopedFaults faults("trace.open:key=3,err=corrupt");
    ASSERT_TRUE(faults.ok());

    ServeOptions opts;
    opts.spec = "tage16k+sfc";
    opts.jobs = 1;
    opts.strict = true;
    ServingEngine engine(opts);
    ServeResult result;
    std::string error;
    EXPECT_FALSE(engine.serve(
        StreamSet::roundRobin(6, twoCbp1Traces(), 300, 0), result,
        error));
    EXPECT_NE(error.find("stream 3"), std::string::npos) << error;
    EXPECT_NE(error.find("injected fault"), std::string::npos) << error;
}

TEST(ServingEngine, WorkerStepFaultQuarantinesMidServeDeterministically)
{
    QuietLog quiet;
    const auto streams =
        StreamSet::roundRobin(8, twoCbp1Traces(), 1000, 0);

    ServeOptions opts;
    opts.spec = "tage16k+sfc";
    opts.batch = 100;
    opts.computeDigests = true;

    ServeResult at_jobs[2];
    unsigned jobs_values[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        // Quarantine stream 4 on its second scheduling turn: exactly
        // one full batch of progress first, at any parallelism.
        failpoints::ScopedFaults faults(
            "serve.worker.step:key=4,nth=2");
        ASSERT_TRUE(faults.ok());
        opts.jobs = jobs_values[i];
        at_jobs[i] = serveOrDie(opts, streams);
    }
    expectSameServe(at_jobs[0], at_jobs[1]);
    for (const ServeResult& r : at_jobs) {
        EXPECT_EQ(r.streamsQuarantined, 1u);
        EXPECT_EQ(r.quarantinedBranches, 100u);
        const StreamResult& s = r.perStream[4];
        EXPECT_EQ(s.status, StreamStatus::Quarantined);
        EXPECT_EQ(s.fault.site, "serve.worker.step");
        EXPECT_EQ(s.branchesServed, 100u);
    }
}

} // namespace
} // namespace tagecon
