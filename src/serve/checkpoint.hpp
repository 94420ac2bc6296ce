/**
 * @file
 * Versioned predictor checkpoint blobs: the on-disk/wire format the
 * serving engine uses to park and resume predictor state.
 *
 * A blob is a header (magic, format version, kind, the canonical
 * registry spec the state was written with), an opaque payload (the
 * predictor's GradedPredictor::snapshot() bytes) and a trailing
 * FNV-1a-64 digest over everything before it. Stream checkpoints
 * (Kind::Stream) additionally carry the serving position — stream id,
 * trace spec and records consumed — so a multi-stream serve can be
 * stopped and resumed bit-identically.
 *
 * Decoding is strict: bad magic, unknown version, digest mismatch,
 * truncation and payload-size disagreement are all distinct, reported
 * errors, and restoreFromCheckpoint() additionally demands that the
 * target predictor's spec matches and that the payload is consumed to
 * the last byte.
 *
 * Every operation returns a typed Err (site names match the failpoint
 * sites: "ckpt.encode", "ckpt.decode", "ckpt.read", "ckpt.write").
 * File writes are crash-safe: the blob lands in "<path>.tmp", is
 * flushed to disk, and is renamed over the final name only once
 * complete — a crash mid-write leaves a stale .tmp, never a torn .tcsp.
 */

#ifndef TAGECON_SERVE_CHECKPOINT_HPP
#define TAGECON_SERVE_CHECKPOINT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/graded_predictor.hpp"
#include "util/errors.hpp"
#include "util/state_io.hpp"

namespace tagecon {

/** First bytes of every checkpoint blob ("TCKP", little-endian). */
inline constexpr uint32_t kCheckpointMagic = 0x504B4354u;

/**
 * Current blob format version. Version history:
 *  - 1: 4 B/entry TAGE payloads (separate ctr and u arena sections).
 *  - 2: 3 B/entry packed payloads (one packed::ctru* arena section);
 *       perceptron and O-GEHL gained snapshot support. L-TAGE (the
 *       loop bit of the TAGE flag byte, then the loop table) and the
 *       JRS estimator (after its host's payload) were added later
 *       without a bump: every blob written before keeps its bytes.
 * Readers reject any other version outright — predictor payloads are
 * raw arena images, so cross-version translation is not attempted.
 */
inline constexpr uint32_t kCheckpointVersion = 2;

/** Decoded form of one checkpoint blob. */
struct Checkpoint {
    /** What the blob checkpoints. */
    enum class Kind : uint32_t {
        Predictor = 1, ///< bare predictor state
        Stream = 2,    ///< predictor state + serving position
    };

    Kind kind = Kind::Predictor;

    /** Canonical registry spec the payload was written with. */
    std::string spec;

    /** Serving stream id (Kind::Stream only). */
    uint64_t streamId = 0;

    /** Trace spec the stream was serving (Kind::Stream only). */
    std::string trace;

    /** Trace records already served (Kind::Stream only). */
    uint64_t consumed = 0;

    /** The predictor's snapshot() bytes. */
    std::vector<uint8_t> payload;
};

/**
 * Snapshot @p predictor into a Kind::Predictor blob tagged with
 * @p spec (the canonical registry spec it was built from). Fails
 * (Unsupported) when snapshot() does. Failpoint site "ckpt.encode".
 */
Err encodePredictorCheckpoint(const GradedPredictor& predictor,
                              const std::string& spec,
                              std::vector<uint8_t>& out);

/**
 * Snapshot @p predictor into a Kind::Stream blob carrying the serving
 * position (@p stream_id, @p trace, @p consumed records served).
 * Failpoint site "ckpt.encode".
 */
Err encodeStreamCheckpoint(const GradedPredictor& predictor,
                           const std::string& spec, uint64_t stream_id,
                           const std::string& trace, uint64_t consumed,
                           std::vector<uint8_t>& out);

/**
 * Decode @p size bytes at @p data into @p out. Validates magic,
 * version, digest and structure; the Err taxonomy distinguishes
 * truncation, corruption (digest/magic/structure) and an unsupported
 * version. Does not touch any predictor. Failpoint site "ckpt.decode".
 */
Err decodeCheckpoint(const uint8_t* data, size_t size, Checkpoint& out);

/** Overload over a whole vector. */
Err decodeCheckpoint(const std::vector<uint8_t>& blob, Checkpoint& out);

/**
 * Restore @p predictor (built from canonical @p spec) from the decoded
 * @p ck. Rejects a spec mismatch (Mismatch); on any failure the
 * predictor is left reset, never half-restored. The payload must be
 * consumed exactly — trailing bytes are an error.
 */
Err restoreFromCheckpoint(const Checkpoint& ck,
                          GradedPredictor& predictor,
                          const std::string& spec);

/**
 * FNV-1a-64 over the whole encoded blob — the state-hash fingerprint
 * the serving engine reports per stream and the golden checkpoint
 * tests pin.
 */
uint64_t checkpointDigest(const std::vector<uint8_t>& blob);

/**
 * Write @p blob to @p path crash-safely: the bytes land in
 * checkpointTempName(path), are flushed (fsync on POSIX) and the temp
 * file is renamed over @p path only once durable, so a reader never
 * observes a torn checkpoint under the final name. I/O failures are
 * ErrCode::Io — the one retryable code. Failpoint site "ckpt.write"
 * (an injected fault simulates a crash mid-write: a half-written .tmp
 * is left behind and the final file is never touched).
 */
Err writeCheckpointFile(const std::string& path,
                        const std::vector<uint8_t>& blob);

/**
 * Read @p path into @p out. A missing file is NotFound — callers
 * treating absence as "cold start" should check checkpointFileExists()
 * first; a short read is Io (retryable). Failpoint site "ckpt.read".
 */
Err readCheckpointFile(const std::string& path,
                       std::vector<uint8_t>& out);

/** True when @p path exists and is openable for reading. */
[[nodiscard]] bool checkpointFileExists(const std::string& path);

/** Conventional per-stream checkpoint file name ("stream-<id>.tcsp"). */
std::string streamCheckpointFileName(uint64_t stream_id);

/** In-progress temp name writeCheckpointFile() uses ("<path>.tmp"). */
std::string checkpointTempName(const std::string& path);

/**
 * True when @p path has a leftover in-progress temp file but no final
 * checkpoint — the signature of a crash mid-write. Restore paths
 * should warn and cold-start instead of failing.
 */
[[nodiscard]] bool staleCheckpointTempExists(const std::string& path);

} // namespace tagecon

#endif // TAGECON_SERVE_CHECKPOINT_HPP
