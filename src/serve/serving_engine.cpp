#include "serve/serving_engine.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_set>

#include "core/graded_predictor.hpp"
#include "obs/metrics.hpp"
#include "obs/span_trace.hpp"
#include "serve/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/registry.hpp"
#include "sim/trace_registry.hpp"
#include "trace/trace_source.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/mutex.hpp"
#include "util/wall_clock.hpp"

namespace tagecon {

namespace StreamSet {

std::vector<StreamDesc>
roundRobin(uint64_t num_streams, const std::vector<std::string>& traces,
           uint64_t branches, uint64_t base_salt)
{
    std::vector<StreamDesc> out;
    if (traces.empty())
        return out;
    out.reserve(static_cast<size_t>(num_streams));
    for (uint64_t id = 0; id < num_streams; ++id) {
        StreamDesc d;
        d.id = id;
        d.trace = traces[static_cast<size_t>(id % traces.size())];
        d.branches = branches;
        // Golden-ratio increment decorrelates same-profile streams;
        // stream 0 keeps the canonical seed.
        d.seedSalt = base_salt ^ (id * 0x9E3779B97F4A7C15ULL);
        out.push_back(std::move(d));
    }
    return out;
}

} // namespace StreamSet

namespace {

/** Serving-side state of one stream, owned by exactly one shard. */
struct StreamState {
    const StreamDesc* desc = nullptr;
    std::unique_ptr<TraceSource> trace;
    std::unique_ptr<GradedPredictor> predictor;

    /** Parked snapshot bytes while the predictor is evicted. */
    std::vector<uint8_t> parked;

    uint64_t consumed = 0;
    bool started = false;
    bool done = false;

    StreamResult result;
};

/**
 * A shard's recycling state. The spare is the predictor object the
 * shard evicted last, or one a finished stream left behind when the
 * shard held none. Every admission takes it when there is one: a
 * re-admission restores into it (GradedPredictor::restore overwrites
 * all state) and a first admission reset()s it, so the shard
 * constructs only when it holds no spare. Each parked blob is written
 * into a buffer reserved at the size of the shard's last blob, so it
 * comes out exact-size.
 */
struct ShardPool {
    std::unique_ptr<GradedPredictor> spare;
    size_t blobBytes = 0;
};

/** Prefix an Err's detail with the stream it belongs to. */
Err
streamErr(const StreamState& st, Err e)
{
    e.detail =
        "stream " + std::to_string(st.desc->id) + ": " + e.detail;
    return e;
}

/**
 * Everything one worker needs to process shards. Each stream's state
 * is owned by exactly one shard and one worker owns a whole shard at
 * a time, so StreamState needs no lock; the one cross-worker sink —
 * the first-error slot — is guarded by its mutex, and -Wthread-safety
 * checks every access.
 */
struct ServeShared {
    const ServeOptions* opts = nullptr;
    std::vector<StreamState>* streams = nullptr;
    std::atomic<size_t> nextShard{0};
    std::atomic<bool> failed{false};
    Mutex errorMutex;
    std::string error TAGECON_GUARDED_BY(errorMutex);
};

/**
 * Cached obs registry handles for the serving hot path — one name
 * lookup per process, then a relaxed atomic per event. All counters
 * here are deterministic for a fixed workload configuration (streams,
 * spec, shards, pool, batch, faults): each shard is served by exactly
 * one worker in a fixed order, so the sums are independent of --jobs.
 */
struct ServeMetrics {
    obs::Counter& predictions = obs::counter("serve.predictions");
    obs::Counter& turns = obs::counter("serve.turns");
    obs::Counter& admissions = obs::counter("serve.pool.admissions");
    obs::Counter& evictions = obs::counter("serve.pool.evictions");
    obs::Counter& constructions =
        obs::counter("serve.pool.constructions");
    obs::Counter& quarantines = obs::counter("serve.quarantines");
    obs::TimingHistogram& turnNs = obs::timingHistogram("serve.turn.ns");
};

ServeMetrics&
serveMetrics()
{
    static ServeMetrics* m = new ServeMetrics;
    return *m;
}

void
reportError(ServeShared& sh, const std::string& what)
{
    MutexLock lock(sh.errorMutex);
    if (sh.error.empty())
        sh.error = what;
    sh.failed.store(true, std::memory_order_relaxed);
}

/**
 * Run @p op, retrying retryable (Io) failures up to
 * ServeOptions::retryAttempts total attempts with exponential backoff.
 * Retries are charged to the stream (StreamResult::retries) so they
 * are visible per stream — and deterministic, because failpoint
 * schedules are a pure function of (rule, stream id, hit index).
 */
Err
withRetry(ServeShared& sh, StreamState& st,
          const std::function<Err()>& op)
{
    const unsigned attempts = std::max(1u, sh.opts->retryAttempts);
    for (unsigned attempt = 1;; ++attempt) {
        Err e = op();
        if (e.ok() || !errIsRetryable(e.code) || attempt >= attempts)
            return e;
        ++st.result.retries;
        const uint64_t delay = sh.opts->retryBaseDelayNs
                               << (attempt - 1);
        if (sh.opts->retrySleep)
            sh.opts->retrySleep(delay);
        else
            wallclock::sleepNanos(delay);
    }
}

/**
 * Materialize (or re-materialize) a stream's live predictor in the
 * shard's spare object, reset() for a first admission, or in a newly
 * constructed one when the shard holds no spare.
 */
Err
admitStream(ServeShared& sh, ShardPool& pool, StreamState& st)
{
    std::string error;
    if (pool.spare) {
        st.predictor = std::move(pool.spare);
        if (st.parked.empty())
            st.predictor->reset();
    } else {
        // validate() accepted the spec before any stream was admitted.
        st.predictor = makePredictor(sh.opts->spec);
        serveMetrics().constructions.add();
    }

    if (!st.parked.empty()) {
        StateReader in(st.parked);
        if (!st.predictor->restore(in, error) || !in.exhausted()) {
            return Err(ErrCode::Corrupt, "serve.admit",
                       "re-admission failed: " +
                           (error.empty() ? "trailing bytes" : error));
        }
        st.parked.clear();
        st.parked.shrink_to_fit();
        return {};
    }

    if (st.started)
        return {};
    st.started = true;

    // First admission: open the trace, then warm-start from a
    // restore-dir checkpoint when one exists.
    auto opened = openTraceSource(st.desc->trace, st.desc->branches,
                                  st.desc->seedSalt);
    if (!opened.ok())
        return opened.error();
    st.trace = opened.take();

    if (sh.opts->restoreDir.empty())
        return {};
    const std::string path = sh.opts->restoreDir + "/" +
                             streamCheckpointFileName(st.desc->id);
    if (!checkpointFileExists(path)) {
        // A leftover in-progress temp means the writer crashed
        // mid-checkpoint; the atomic rename guarantees nothing torn
        // sits under the final name, so cold-start and say so.
        if (staleCheckpointTempExists(path)) {
            warn("stream " + std::to_string(st.desc->id) +
                 ": stale in-progress checkpoint '" +
                 checkpointTempName(path) +
                 "' (crashed write?); cold-starting");
        }
        return {}; // cold start
    }

    std::vector<uint8_t> blob;
    if (Err e = withRetry(sh, st,
                          [&] {
                              return readCheckpointFile(path, blob);
                          });
        e.failed())
        return e;
    Checkpoint ck;
    if (Err e = decodeCheckpoint(blob, ck); e.failed())
        return e;
    if (ck.kind != Checkpoint::Kind::Stream ||
        ck.streamId != st.desc->id || ck.trace != st.desc->trace) {
        return Err(ErrCode::Mismatch, "ckpt.decode",
                   "checkpoint '" + path +
                       "' belongs to a different stream");
    }
    if (Err e = restoreFromCheckpoint(ck, *st.predictor, sh.opts->spec);
        e.failed())
        return e;

    // Skip the already-served trace prefix.
    BranchRecord rec;
    for (uint64_t i = 0; i < ck.consumed; ++i) {
        if (!st.trace->next(rec)) {
            if (const Err* te = st.trace->lastError())
                return *te;
            return Err(ErrCode::Truncated, "trace.read",
                       "checkpoint consumed " +
                           std::to_string(ck.consumed) +
                           " records but the trace is shorter");
        }
    }
    st.consumed = ck.consumed;
    st.result.resumedAt = ck.consumed;
    return {};
}

/** Park a live predictor as snapshot bytes; keep the object spare. */
Err
evictStream(ShardPool& pool, StreamState& st)
{
    failpoints::KeyScope scope(st.desc->id);
    StateWriter w;
    w.reserve(pool.blobBytes);
    std::string error;
    if (!st.predictor->snapshot(w, error))
        return Err(ErrCode::Unsupported, "serve.evict",
                   "eviction failed: " + error);
    pool.blobBytes = w.size();
    st.parked = w.take();
    pool.spare = std::move(st.predictor);
    return {};
}

/**
 * Checkpoint / fingerprint a finished stream, then release it; its
 * predictor becomes the shard's spare when the shard holds none.
 */
Err
finalizeStream(ServeShared& sh, ShardPool& pool, StreamState& st)
{
    const ServeOptions& opts = *sh.opts;
    st.result.allocations = st.predictor->allocations();
    if (!opts.checkpointDir.empty() || opts.computeDigests) {
        std::vector<uint8_t> blob;
        if (Err e = encodeStreamCheckpoint(*st.predictor, opts.spec,
                                           st.desc->id, st.desc->trace,
                                           st.consumed, blob);
            e.failed())
            return e;
        st.result.stateDigest = checkpointDigest(blob);
        st.result.checkpointBytes = blob.size();
        if (!opts.checkpointDir.empty()) {
            const std::string path =
                opts.checkpointDir + "/" +
                streamCheckpointFileName(st.desc->id);
            if (Err e = withRetry(sh, st,
                                  [&] {
                                      return writeCheckpointFile(path,
                                                                 blob);
                                  });
                e.failed())
                return e;
        }
    }
    if (!pool.spare)
        pool.spare = std::move(st.predictor);
    st.predictor.reset();
    st.trace.reset();
    st.done = true;
    return {};
}

/**
 * Isolate a failed stream: record the fault, free its resources, mark
 * it done. Every other stream is untouched, so the rest of the serve
 * is bit-identical to one that never contained this stream.
 */
void
quarantineStream(StreamState& st, Err e)
{
    warn("stream " + std::to_string(st.desc->id) +
         " quarantined: " + e.message());
    st.result.status = StreamStatus::Quarantined;
    st.result.fault = std::move(e);
    serveMetrics().quarantines.add();
    st.predictor.reset();
    st.trace.reset();
    st.parked.clear();
    st.parked.shrink_to_fit();
    st.done = true;
}

/**
 * Serve every stream of one shard round-robin to exhaustion. Single
 * worker per shard, so no locking on stream state.
 */
void
serveShard(ServeShared& sh, size_t shard_index,
           const std::vector<size_t>& members)
{
    TAGECON_SPAN("serve.shard", shard_index);
    const ServeOptions& opts = *sh.opts;
    ServeMetrics& metrics = serveMetrics();
    const size_t cap = opts.poolPerShard;
    std::deque<size_t> live; // admission order, for FIFO eviction

    auto eraseLive = [&live](size_t idx) {
        const auto it = std::find(live.begin(), live.end(), idx);
        if (it != live.end())
            live.erase(it);
    };

    // Strict mode aborts the serve on the first failure (returns
    // false); the default isolates it into the one stream.
    auto failStream = [&](StreamState& st, Err e) {
        if (opts.strict) {
            reportError(sh, streamErr(st, std::move(e)).message());
            return false;
        }
        quarantineStream(st, std::move(e));
        return true;
    };

    // Reused per-turn chunk buffers; driveBranches() caps each turn's
    // chunks at its batch.
    DriveChunk chunk;
    ShardPool pool;

    size_t remaining = members.size();
    while (remaining > 0) {
        if (sh.failed.load(std::memory_order_relaxed))
            return;
        for (size_t idx : members) {
            StreamState& st = (*sh.streams)[idx];
            if (st.done)
                continue;
            if (sh.failed.load(std::memory_order_relaxed))
                return;

            // Failpoint triggers key on the stream id, so injection
            // schedules are a function of each stream's own progress —
            // bit-reproducible at any --jobs / shard count.
            failpoints::KeyScope scope(st.desc->id);

            if (failpoints::anyArmed()) {
                if (auto injected =
                        failpoints::check("serve.worker.step")) {
                    eraseLive(idx);
                    if (!failStream(st, std::move(*injected)))
                        return;
                    --remaining;
                    continue;
                }
            }

            if (!st.predictor) {
                if (Err e = admitStream(sh, pool, st); e.failed()) {
                    if (!failStream(st, std::move(e)))
                        return;
                    --remaining;
                    continue;
                }
                metrics.admissions.add();
                live.push_back(idx);
                while (cap != 0 && live.size() > cap) {
                    const size_t victim = live.front();
                    live.pop_front();
                    StreamState& vs = (*sh.streams)[victim];
                    metrics.evictions.add();
                    if (Err e = evictStream(pool, vs); e.failed()) {
                        // The victim, not the stream being admitted,
                        // is the one that failed.
                        if (!failStream(vs, std::move(e)))
                            return;
                        --remaining;
                    }
                }
            }

            // The clock is read only to feed serve.turn.ns, so a serve
            // with metrics off pays nothing for turn timing.
            const bool timed = obs::metricsEnabled();
            const uint64_t start_ns =
                timed ? wallclock::monotonicNanos() : 0;
            const DriveSink sink{st.predictor.get(), &st.result.stats, {}};
            const uint64_t n =
                driveBranches(*st.trace, {&sink, 1}, opts.batch, chunk);
            if (timed && n > 0)
                metrics.turnNs.record(wallclock::monotonicNanos() -
                                      start_ns);
            st.consumed += n;
            st.result.branchesServed += n;
            metrics.turns.add();
            metrics.predictions.add(n);
            // A short turn means exhaustion — or a failed source;
            // check before treating the stream as cleanly finished.
            if (const Err* te = st.trace->lastError()) {
                eraseLive(idx);
                if (!failStream(st, *te))
                    return;
                --remaining;
                continue;
            }
            if (n < opts.batch) {
                eraseLive(idx);
                if (Err e = finalizeStream(sh, pool, st); e.failed()) {
                    if (!failStream(st, std::move(e)))
                        return;
                }
                --remaining;
            }
        }
    }
}

} // namespace

ServingEngine::ServingEngine(ServeOptions opts) : opts_(std::move(opts))
{
}

bool
ServingEngine::validate(std::string* error)
{
    if (validated_)
        return true;
    std::string why;
    const std::string canonical = canonicalizeSpec(opts_.spec, &why);
    if (canonical.empty()) {
        if (error)
            *error = why;
        return false;
    }
    const auto probe = tryMakePredictor(canonical, &why);
    if (!probe) {
        if (error)
            *error = why;
        return false;
    }
    if (opts_.batch == 0) {
        if (error)
            *error = "batch size must be at least 1";
        return false;
    }
    opts_.spec = canonical;
    storageBits_ = probe->storageBits();
    validated_ = true;
    return true;
}

bool
ServingEngine::serve(const std::vector<StreamDesc>& streams,
                     ServeResult& out, std::string& error)
{
    out = ServeResult{};
    if (!validate(&error))
        return false;
    if (streams.empty()) {
        error = "no streams to serve";
        return false;
    }
    {
        std::unordered_set<uint64_t> ids;
        for (const auto& d : streams)
            if (!ids.insert(d.id).second) {
                error = "duplicate stream id " + std::to_string(d.id);
                return false;
            }
    }

    unsigned jobs = opts_.jobs != 0
                        ? opts_.jobs
                        : std::max(1u, std::thread::hardware_concurrency());
    unsigned shards = opts_.shards != 0 ? opts_.shards : 4 * jobs;

    std::vector<StreamState> states(streams.size());
    std::vector<std::vector<size_t>> shard_streams(shards);
    for (size_t i = 0; i < streams.size(); ++i) {
        states[i].desc = &streams[i];
        states[i].result.id = streams[i].id;
        states[i].result.trace = streams[i].trace;
        shard_streams[static_cast<size_t>(streams[i].id % shards)]
            .push_back(i);
    }

    ServeShared sh;
    sh.opts = &opts_;
    sh.streams = &states;

    const uint64_t wall_start_ns = wallclock::monotonicNanos();
    auto worker = [&sh, &shard_streams]() {
        for (;;) {
            const size_t shard =
                sh.nextShard.fetch_add(1, std::memory_order_relaxed);
            if (shard >= shard_streams.size())
                return;
            if (sh.failed.load(std::memory_order_relaxed))
                return;
            if (!shard_streams[shard].empty())
                serveShard(sh, shard, shard_streams[shard]);
        }
    };

    const unsigned workers =
        std::min<unsigned>(jobs, static_cast<unsigned>(shards));
    if (workers <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned i = 0; i < workers; ++i)
            pool.emplace_back(worker);
        for (auto& t : pool)
            t.join();
    }
    out.wallSeconds = wallclock::secondsBetween(
        wall_start_ns, wallclock::monotonicNanos());

    if (sh.failed.load(std::memory_order_relaxed)) {
        // Workers are joined; the lock is for the annotated invariant
        // (and costs nothing uncontended).
        MutexLock lock(sh.errorMutex);
        error = sh.error;
        return false;
    }

    out.perStream.reserve(states.size());
    for (auto& st : states) {
        st.result.confusion =
            BinaryConfidenceMetrics::fromClassStats(st.result.stats);
        if (st.result.status == StreamStatus::Ok) {
            out.aggregate.merge(st.result.stats);
            out.totalBranches += st.result.branchesServed;
            out.totalAllocations += st.result.allocations;
            ++out.streamsServed;
            if (st.result.resumedAt != 0)
                ++out.streamsRestored;
        } else {
            ++out.streamsQuarantined;
            out.quarantinedBranches += st.result.branchesServed;
        }
        out.totalRetries += st.result.retries;
        out.perStream.push_back(std::move(st.result));
    }
    // Stream-outcome counters, bumped here (single-threaded, input
    // order) rather than in the workers: same totals either way, but
    // this keeps the aggregation the one place outcome accounting
    // lives.
    obs::counter("serve.streams.ok").add(out.streamsServed);
    obs::counter("serve.streams.quarantined")
        .add(out.streamsQuarantined);
    obs::counter("serve.streams.restored").add(out.streamsRestored);
    obs::counter("serve.allocs").add(out.totalAllocations);
    obs::counter("serve.retries").add(out.totalRetries);
    out.storageBits = storageBits_;
    return true;
}

} // namespace tagecon
