/**
 * @file
 * Multi-stream serving engine: N independent prediction streams —
 * thousands of simulated "users", each with its own trace position and
 * predictor state — multiplexed over a fixed worker pool.
 *
 * Dispatch is sharded on stream id: stream i belongs to shard
 * i % shards, one worker owns a whole shard at a time (workers pull
 * shards off an atomic counter), so stream state needs no locking.
 * Within a shard, streams advance round-robin in batches of
 * ServeOptions::batch predictions, each turn stepped by the drive
 * kernel runTrace() uses too (sim/experiment.hpp), which folds each
 * branch into the stream's ClassStats alone. Predictor state is
 * pooled per shard: at most poolPerShard predictors are resident; the
 * rest are parked as snapshot() blobs and restored on re-admission —
 * the checkpoint layer doubles as the eviction format, so a
 * 10k-stream serve stays within a bounded memory footprint.
 *
 * An eviction cycle costs about one copy of the blob each way. TAGE
 * state moves as bulk little-endian copies, each scalar in one step
 * and the history ring eight outcomes at a time, and each blob is
 * written into a buffer reserved at the shard's last blob size. No
 * admission constructs while its shard holds a spare predictor object
 * (the one it evicted last, or one a finished stream left when it
 * held none): a re-admission restores into the spare (restore()
 * overwrites all state) and a first admission reset()s it. A shard
 * whose streams all finish on the same round therefore builds at most
 * poolPerShard + 1 predictors. For tage64k+sfc, a 15,093-byte blob,
 * a cycle measured about 20 us of snapshot, 11-16 us of restore and
 * 3 us of construction with per-element encoding and a fresh
 * predictor per admission; 1.3-1.7 + 0.9-1.2 us with bulk arenas but
 * per-byte scalars and a per-bit ring; and 0.5-0.7 + 0.4-0.5 us with
 * this design (BM_TageSnapshot/BM_TageRestore, gcc 12 -O2, 4-vCPU Xeon
 * VM).
 *
 * Determinism: each stream's trajectory is a pure function of its
 * (spec, trace, branches, seedSalt) and snapshot/restore round-trips
 * are bit-exact, so per-stream results are identical at any --jobs,
 * shard count, pool bound or batch size. ServeResult::wallSeconds is
 * the only non-deterministic field, so drivers can diff everything
 * else byte for byte. Per-turn latency is not part of the result: it
 * is the obs registry's serve.turn.ns histogram, recorded only while
 * metrics are on.
 *
 * Fault isolation: a stream whose trace or checkpoint I/O fails is
 * quarantined — its typed Err is recorded in StreamResult::fault, its
 * resources are freed, and every other stream completes bit-identical
 * to a serve that never contained the faulty stream. Retryable
 * (ErrCode::Io) checkpoint-dir failures get a bounded retry with
 * exponential backoff first. ServeOptions::strict restores the old
 * fail-fast behavior: the first stream error aborts the serve.
 */

#ifndef TAGECON_SERVE_SERVING_ENGINE_HPP
#define TAGECON_SERVE_SERVING_ENGINE_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/binary_metrics.hpp"
#include "core/class_stats.hpp"
#include "util/errors.hpp"

namespace tagecon {

/** One serving stream: an id plus its trace recipe. */
struct StreamDesc {
    /** Stable stream id (shard key and checkpoint file name). */
    uint64_t id = 0;

    /** Trace spec (profile name or "file:PATH"). */
    std::string trace;

    /** Branches to serve (generated, or replay cap for files). */
    uint64_t branches = 0;

    /** Seed salt for synthetic generation (ignored by files). */
    uint64_t seedSalt = 0;
};

/** Builders for common stream populations. */
namespace StreamSet {

/**
 * @p num_streams streams over @p traces round-robin (stream i serves
 * traces[i % traces.size()]), each @p branches long. Stream 0 keeps
 * the canonical seed (@p base_salt); every other stream perturbs it
 * with a per-id golden-ratio salt so "users" of the same profile see
 * distinct branch streams.
 */
std::vector<StreamDesc> roundRobin(uint64_t num_streams,
                                   const std::vector<std::string>& traces,
                                   uint64_t branches,
                                   uint64_t base_salt = 0);

} // namespace StreamSet

/** Execution knobs of a serve. */
struct ServeOptions {
    /** Registry spec every stream's predictor is built from. */
    std::string spec = "tage64k+sfc";

    /** Worker threads; 0 means hardware concurrency. */
    unsigned jobs = 1;

    /** Dispatch shards; 0 means 4 * jobs. */
    unsigned shards = 0;

    /**
     * Resident predictors per shard; streams beyond this are parked as
     * snapshot blobs between batches. 0 means unbounded (every stream
     * keeps a live predictor — fastest, largest footprint).
     */
    unsigned poolPerShard = 8;

    /** Predictions served per stream per scheduling turn. */
    unsigned batch = 512;

    /**
     * When non-empty, write each finished stream's state as
     * "<dir>/stream-<id>.tcsp" (Kind::Stream checkpoint blob).
     */
    std::string checkpointDir;

    /**
     * When non-empty, warm-start each stream from
     * "<dir>/stream-<id>.tcsp" if present: restore the predictor and
     * skip the already-consumed trace prefix. Missing files cold-start.
     */
    std::string restoreDir;

    /**
     * Compute each finished stream's checkpoint-blob digest
     * (StreamResult::stateDigest) even when not writing files.
     */
    bool computeDigests = false;

    /**
     * Fail fast: the first stream error aborts the whole serve (the
     * pre-quarantine behavior). Default is to quarantine the failed
     * stream and keep serving the rest.
     */
    bool strict = false;

    /**
     * Total attempts for retryable (ErrCode::Io) checkpoint-dir reads
     * and writes; 1 disables retry. Attempt k sleeps
     * retryBaseDelayNs * 2^(k-1) first.
     */
    unsigned retryAttempts = 3;

    /** Backoff before the first retry, in nanoseconds (then doubled). */
    uint64_t retryBaseDelayNs = 1'000'000;

    /**
     * Injectable backoff clock for tests: called with the delay in
     * nanoseconds instead of sleeping. Empty means really sleep.
     */
    std::function<void(uint64_t)> retrySleep;
};

/** Terminal state of one stream after a serve. */
enum class StreamStatus : uint8_t {
    Ok = 0,          ///< served to exhaustion
    Quarantined = 1, ///< failed and isolated; see StreamResult::fault
};

/** Outcome of serving one stream. */
struct StreamResult {
    uint64_t id = 0;
    std::string trace;

    /** Branches served this run (excludes a restored prefix). */
    uint64_t branchesServed = 0;

    /** Consumed count the stream was warm-started at (0 = cold). */
    uint64_t resumedAt = 0;

    /** Per-class statistics of the served branches. */
    ClassStats stats;

    /**
     * BinaryConfidenceMetrics::fromClassStats(stats), filled once when
     * the serve ends. Kept as a field for perfbench/, which reads it.
     */
    BinaryConfidenceMetrics confusion;

    /**
     * FNV-1a-64 of the stream's final checkpoint blob, when digests or
     * checkpointing were requested; 0 otherwise.
     */
    uint64_t stateDigest = 0;

    /** Ok, or Quarantined with the reason in fault. */
    StreamStatus status = StreamStatus::Ok;

    /**
     * Why the stream was quarantined (fault.ok() for Ok streams). The
     * site field names the failing operation — injected faults and
     * real failures are indistinguishable here by design.
     */
    Err fault;

    /** Backoff retries spent on this stream's checkpoint-dir I/O. */
    uint32_t retries = 0;

    /**
     * Tagged-table entries the stream's predictor allocated over its
     * whole lifetime (GradedPredictor::allocations()). Serialized in
     * snapshots, so eviction/restore round-trips preserve it — a pure
     * function of the stream recipe, invariant to jobs/shards/pool.
     */
    uint64_t allocations = 0;

    /**
     * Size of the stream's final checkpoint blob in bytes, when
     * digests or checkpointing were requested; 0 otherwise. Blobs are
     * bit-identical across configs, so this is config-invariant too.
     */
    uint64_t checkpointBytes = 0;
};

/** Outcome of a whole serve. */
struct ServeResult {
    /** Per-stream results, in input stream order. */
    std::vector<StreamResult> perStream;

    /**
     * Pooled statistics over every branch of every Ok stream.
     * Quarantined streams' partial progress is excluded, so these
     * match a serve that never contained the faulty streams.
     */
    ClassStats aggregate;

    /** Branches served by Ok streams. */
    uint64_t totalBranches = 0;

    /** Streams that finished Ok. */
    uint64_t streamsServed = 0;

    /** Streams quarantined (streamsServed + this = input size). */
    uint64_t streamsQuarantined = 0;

    /** Partial branches served by quarantined streams before failing. */
    uint64_t quarantinedBranches = 0;

    /** Backoff retries spent across all streams. */
    uint64_t totalRetries = 0;

    /** Streams warm-started from a restore-dir checkpoint. */
    uint64_t streamsRestored = 0;

    /** Lifetime predictor allocations summed over Ok streams. */
    uint64_t totalAllocations = 0;

    /** Per-predictor storage in bits (one stream's predictor). */
    uint64_t storageBits = 0;

    /** Wall time of the serve() call (non-deterministic). */
    double wallSeconds = 0.0;
};

/** Sharded multi-stream serving engine. */
class ServingEngine
{
  public:
    explicit ServingEngine(ServeOptions opts);

    /**
     * Check the options: the spec must be constructible (every
     * registry stack checkpoints, so any pool bound, checkpointing and
     * digests apply to all) and the batch at least 1. The probe
     * predictor built here also gives ServeResult::storageBits.
     * Returns false with the reason in @p error. serve() calls this
     * implicitly.
     */
    [[nodiscard]] bool validate(std::string* error = nullptr);

    /** The options, with spec canonicalized after validate(). */
    const ServeOptions& options() const { return opts_; }

    /**
     * Serve @p streams to exhaustion. Returns false with the reason in
     * @p error on invalid options, duplicate stream ids, or — in
     * strict mode only — the first stream failure. Otherwise a failing
     * stream is quarantined (StreamResult::status / fault) and serve()
     * still returns true. Results are in @p streams order regardless
     * of jobs/shards/pool/batch.
     */
    [[nodiscard]] bool serve(const std::vector<StreamDesc>& streams,
                             ServeResult& out, std::string& error);

  private:
    ServeOptions opts_;
    bool validated_ = false;

    /** The spec's storageBits(), read from validate()'s probe. */
    uint64_t storageBits_ = 0;
};

} // namespace tagecon

#endif // TAGECON_SERVE_SERVING_ENGINE_HPP
