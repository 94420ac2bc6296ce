#include "serve/checkpoint.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/metrics.hpp"
#include "obs/span_trace.hpp"
#include "util/failpoint.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define TAGECON_HAVE_FSYNC 1
#else
#define TAGECON_HAVE_FSYNC 0
#endif

namespace tagecon {

namespace {

/**
 * Cached obs handles for checkpoint traffic. Counters tick on success
 * only, so they are a pure function of the workload + fault schedule
 * (deterministic); the .ns histograms are wall-clock and live in the
 * timing section.
 */
struct CkptMetrics {
    obs::Counter& encodes = obs::counter("ckpt.encodes");
    obs::Counter& decodes = obs::counter("ckpt.decodes");
    obs::Counter& writes = obs::counter("ckpt.writes");
    obs::Counter& reads = obs::counter("ckpt.reads");
    obs::Counter& bytesWritten = obs::counter("ckpt.bytes.written");
    obs::Counter& bytesRead = obs::counter("ckpt.bytes.read");
    obs::TimingHistogram& writeNs = obs::timingHistogram("ckpt.write.ns");
    obs::TimingHistogram& readNs = obs::timingHistogram("ckpt.read.ns");
};

CkptMetrics&
ckptMetrics()
{
    static CkptMetrics* m = new CkptMetrics;
    return *m;
}

Err
encodeCheckpoint(const GradedPredictor& predictor,
                 const std::string& spec, Checkpoint::Kind kind,
                 uint64_t stream_id, const std::string& trace,
                 uint64_t consumed, std::vector<uint8_t>& out)
{
    if (failpoints::anyArmed()) {
        if (auto injected = failpoints::check("ckpt.encode"))
            return std::move(*injected);
    }
    StateWriter payload;
    std::string why;
    if (!predictor.snapshot(payload, why))
        return Err(ErrCode::Unsupported, "ckpt.encode", std::move(why));

    StateWriter w;
    w.u32(kCheckpointMagic);
    w.u32(kCheckpointVersion);
    w.u32(static_cast<uint32_t>(kind));
    w.str(spec);
    if (kind == Checkpoint::Kind::Stream) {
        w.u64(stream_id);
        w.str(trace);
        w.u64(consumed);
    }
    w.u64(payload.size());
    w.bytes(payload.data().data(), payload.size());
    w.u64(fnv1a64(w.data().data(), w.size()));
    out = w.take();
    ckptMetrics().encodes.add();
    return {};
}

/** Close @p f (when non-null), ignoring errors; for cleanup paths. */
void
closeQuiet(std::FILE* f)
{
    if (f)
        std::fclose(f);
}

} // namespace

Err
encodePredictorCheckpoint(const GradedPredictor& predictor,
                          const std::string& spec,
                          std::vector<uint8_t>& out)
{
    return encodeCheckpoint(predictor, spec, Checkpoint::Kind::Predictor,
                            0, "", 0, out);
}

Err
encodeStreamCheckpoint(const GradedPredictor& predictor,
                       const std::string& spec, uint64_t stream_id,
                       const std::string& trace, uint64_t consumed,
                       std::vector<uint8_t>& out)
{
    return encodeCheckpoint(predictor, spec, Checkpoint::Kind::Stream,
                            stream_id, trace, consumed, out);
}

Err
decodeCheckpoint(const uint8_t* data, size_t size, Checkpoint& out)
{
    if (failpoints::anyArmed()) {
        if (auto injected = failpoints::check("ckpt.decode"))
            return std::move(*injected);
    }
    constexpr const char* kSite = "ckpt.decode";

    // Minimal blob: magic + version + kind + empty spec + payload size
    // + digest.
    if (size < 4 + 4 + 4 + 4 + 8 + 8)
        return Err(ErrCode::Truncated, kSite,
                   "checkpoint blob is truncated");

    {
        StateReader tail(data + size - 8, 8);
        const uint64_t stored = tail.u64();
        if (fnv1a64(data, size - 8) != stored)
            return Err(ErrCode::Corrupt, kSite,
                       "checkpoint digest mismatch: blob is corrupted "
                       "or truncated");
    }

    StateReader in(data, size - 8);
    if (in.u32() != kCheckpointMagic)
        return Err(ErrCode::Corrupt, kSite,
                   "not a tagecon checkpoint blob (bad magic)");
    const uint32_t version = in.u32();
    if (version != kCheckpointVersion) {
        return Err(ErrCode::BadVersion, kSite,
                   "unsupported checkpoint version " +
                       std::to_string(version) +
                       " (this build reads version " +
                       std::to_string(kCheckpointVersion) + ")");
    }
    const uint32_t kind = in.u32();
    if (kind != static_cast<uint32_t>(Checkpoint::Kind::Predictor) &&
        kind != static_cast<uint32_t>(Checkpoint::Kind::Stream)) {
        return Err(ErrCode::Corrupt, kSite,
                   "unknown checkpoint kind " + std::to_string(kind));
    }
    out.kind = static_cast<Checkpoint::Kind>(kind);
    out.spec = in.str();
    out.streamId = 0;
    out.trace.clear();
    out.consumed = 0;
    if (out.kind == Checkpoint::Kind::Stream) {
        out.streamId = in.u64();
        out.trace = in.str();
        out.consumed = in.u64();
    }
    const uint64_t payload_size = in.u64();
    if (!in.ok() || payload_size != in.remaining())
        return Err(ErrCode::Corrupt, kSite,
                   "checkpoint payload size disagrees with the blob");
    out.payload.resize(static_cast<size_t>(payload_size));
    in.bytes(out.payload.data(), out.payload.size());
    if (!in.ok() || !in.exhausted())
        return Err(ErrCode::Corrupt, kSite,
                   "checkpoint blob is malformed");
    ckptMetrics().decodes.add();
    return {};
}

Err
decodeCheckpoint(const std::vector<uint8_t>& blob, Checkpoint& out)
{
    return decodeCheckpoint(blob.data(), blob.size(), out);
}

Err
restoreFromCheckpoint(const Checkpoint& ck, GradedPredictor& predictor,
                      const std::string& spec)
{
    constexpr const char* kSite = "ckpt.decode";
    if (ck.spec != spec) {
        predictor.reset();
        return Err(ErrCode::Mismatch, kSite,
                   "checkpoint was written for spec '" + ck.spec +
                       "', not '" + spec + "'");
    }
    StateReader in(ck.payload);
    std::string why;
    if (!predictor.restore(in, why)) {
        predictor.reset();
        return Err(ErrCode::Corrupt, kSite, std::move(why));
    }
    if (!in.exhausted()) {
        predictor.reset();
        return Err(ErrCode::Corrupt, kSite,
                   "checkpoint payload has trailing bytes");
    }
    return {};
}

uint64_t
checkpointDigest(const std::vector<uint8_t>& blob)
{
    return fnv1a64(blob.data(), blob.size());
}

Err
writeCheckpointFile(const std::string& path,
                    const std::vector<uint8_t>& blob)
{
    constexpr const char* kSite = "ckpt.write";
    const std::string tmp = checkpointTempName(path);
    TAGECON_SPAN("ckpt.write");
    obs::ScopedTimer timer(ckptMetrics().writeNs);

    if (failpoints::anyArmed()) {
        if (auto injected = failpoints::check(kSite)) {
            // Simulate a crash mid-write: half the blob lands in the
            // temp file, the final name is never touched. Restores see
            // a stale .tmp and cold-start; nothing torn is loadable.
            std::ofstream torn(tmp, std::ios::binary | std::ios::trunc);
            if (torn)
                torn.write(reinterpret_cast<const char*>(blob.data()),
                           static_cast<std::streamsize>(blob.size() / 2));
            return std::move(*injected);
        }
    }

    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return Err(ErrCode::Io, kSite,
                   "cannot open '" + tmp + "' for writing");
    if (!blob.empty() &&
        std::fwrite(blob.data(), 1, blob.size(), f) != blob.size()) {
        closeQuiet(f);
        return Err(ErrCode::Io, kSite, "short write to '" + tmp + "'");
    }
    if (std::fflush(f) != 0) {
        closeQuiet(f);
        return Err(ErrCode::Io, kSite, "cannot flush '" + tmp + "'");
    }
#if TAGECON_HAVE_FSYNC
    // Durability before visibility: the rename below must never
    // publish bytes the disk hasn't accepted.
    if (fsync(fileno(f)) != 0) {
        closeQuiet(f);
        return Err(ErrCode::Io, kSite, "cannot fsync '" + tmp + "'");
    }
#endif
    if (std::fclose(f) != 0)
        return Err(ErrCode::Io, kSite, "cannot close '" + tmp + "'");

    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return Err(ErrCode::Io, kSite,
                   "cannot rename '" + tmp + "' to '" + path + "'");
    }
    ckptMetrics().writes.add();
    ckptMetrics().bytesWritten.add(blob.size());
    return {};
}

Err
readCheckpointFile(const std::string& path, std::vector<uint8_t>& out)
{
    constexpr const char* kSite = "ckpt.read";
    TAGECON_SPAN("ckpt.read");
    obs::ScopedTimer timer(ckptMetrics().readNs);
    if (failpoints::anyArmed()) {
        if (auto injected = failpoints::check(kSite))
            return std::move(*injected);
    }
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        return Err(ErrCode::NotFound, kSite,
                   "cannot open '" + path + "' for reading");
    const std::streamsize size = is.tellg();
    is.seekg(0, std::ios::beg);
    out.resize(static_cast<size_t>(size));
    if (size > 0)
        is.read(reinterpret_cast<char*>(out.data()), size);
    if (!is)
        return Err(ErrCode::Io, kSite,
                   "short read from '" + path + "'");
    ckptMetrics().reads.add();
    ckptMetrics().bytesRead.add(out.size());
    return {};
}

bool
checkpointFileExists(const std::string& path)
{
    return std::ifstream(path, std::ios::binary).good();
}

std::string
streamCheckpointFileName(uint64_t stream_id)
{
    return "stream-" + std::to_string(stream_id) + ".tcsp";
}

std::string
checkpointTempName(const std::string& path)
{
    return path + ".tmp";
}

bool
staleCheckpointTempExists(const std::string& path)
{
    return !checkpointFileExists(path) &&
           checkpointFileExists(checkpointTempName(path));
}

} // namespace tagecon
