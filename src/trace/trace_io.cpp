#include "trace/trace_io.hpp"

#include <array>
#include <cstring>
#include <filesystem>

#include "util/failpoint.hpp"

namespace tagecon {

namespace {

constexpr std::array<char, 4> kMagic = {'T', 'C', 'B', 'T'};

template <typename T>
void
writeRaw(std::ofstream& out, const T& v)
{
    out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool
readRaw(std::ifstream& in, T& v)
{
    in.read(reinterpret_cast<char*>(&v), sizeof(T));
    return in.good();
}

constexpr const char* kOpenSite = "trace.open";

/**
 * Parse and validate the header of an already-open stream. Returns the
 * typed reason (detail prefixed with the path) on failure.
 */
Err
readHeader(std::ifstream& in, const std::string& path,
           TraceFileInfo& info)
{
    std::array<char, 4> magic{};
    in.read(magic.data(), static_cast<std::streamsize>(magic.size()));
    if (!in || magic != kMagic)
        return Err(ErrCode::Corrupt, kOpenSite,
                   "'" + path + "' is not a tagecon trace file");
    uint32_t version = 0;
    if (!readRaw(in, version) || version != kTraceFormatVersion) {
        return Err(
            ErrCode::BadVersion, kOpenSite,
            "'" + path + "' has unsupported trace format version " +
                (in ? std::to_string(version)
                    : std::string("(unreadable)")) +
                " (expected " + std::to_string(kTraceFormatVersion) +
                ")");
    }
    uint32_t name_len = 0;
    if (!readRaw(in, name_len) || name_len > 4096)
        return Err(ErrCode::Corrupt, kOpenSite,
                   "'" + path + "' has a malformed header");
    info.name.resize(name_len);
    in.read(info.name.data(), static_cast<std::streamsize>(name_len));
    if (!in || !readRaw(in, info.records))
        return Err(ErrCode::Truncated, kOpenSite,
                   "'" + path + "' has a truncated header");
    info.dataStart = static_cast<uint64_t>(in.tellg());

    // Fail fast on truncation: the header's record count must fit in
    // the bytes the file actually has, or next() would fail deep into
    // a simulation instead of at open time.
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    info.fileBytes = ec ? 0 : static_cast<uint64_t>(size);
    if (!ec) {
        // Divide rather than multiply: records * kTraceRecordBytes can
        // wrap for a corrupt header, which would sneak a bogus record
        // count past this check.
        const uint64_t payload = info.fileBytes >= info.dataStart
                                     ? info.fileBytes - info.dataStart
                                     : 0;
        if (info.records > payload / kTraceRecordBytes) {
            return Err(ErrCode::Truncated, kOpenSite,
                       "'" + path + "' is truncated: header promises " +
                           std::to_string(info.records) +
                           " records but the file (" +
                           std::to_string(info.fileBytes) +
                           " bytes) has room for only " +
                           std::to_string(payload / kTraceRecordBytes));
        }
    }
    return {};
}

/** Open @p path and parse its header; the shared non-fatal front end. */
Err
openAndReadHeader(const std::string& path, std::ifstream& in,
                  TraceFileInfo& info)
{
    in.open(path, std::ios::binary);
    if (!in)
        return Err(ErrCode::NotFound, kOpenSite,
                   "cannot open trace file '" + path + "'");
    return readHeader(in, path, info);
}

} // namespace

Expected<TraceFileInfo>
probeTrace(const std::string& path)
{
    std::ifstream in;
    TraceFileInfo info;
    if (Err e = openAndReadHeader(path, in, info); e.failed())
        return e;
    return info;
}

TraceReader::TraceReader(Opened, const std::string& path,
                         std::ifstream in, TraceFileInfo info)
    : path_(path), in_(std::move(in)), name_(std::move(info.name)),
      total_(info.records),
      dataStart_(static_cast<std::streampos>(info.dataStart))
{
}

Expected<std::unique_ptr<TraceReader>>
TraceReader::open(const std::string& path)
{
    std::ifstream in;
    TraceFileInfo info;
    if (Err e = openAndReadHeader(path, in, info); e.failed())
        return e;
    return std::unique_ptr<TraceReader>(
        new TraceReader(Opened{}, path, std::move(in), std::move(info)));
}

bool
TraceReader::next(BranchRecord& out)
{
    if (err_.failed() || read_ >= total_)
        return false;
    if (failpoints::anyArmed()) {
        if (auto injected = failpoints::check("trace.read")) {
            err_ = std::move(*injected);
            return false;
        }
    }
    uint8_t taken = 0;
    if (!readRaw(in_, out.pc) || !readRaw(in_, out.instructionsBefore) ||
        !readRaw(in_, taken)) {
        // Latch instead of fatal(): the file shrank under us (the open
        // time size check passed), so end this stream and let the
        // caller decide — the serving engine quarantines just the
        // affected stream.
        err_ = Err(ErrCode::Truncated, "trace.read",
                   "'" + path_ + "' is truncated (header promises " +
                       std::to_string(total_) + " records)");
        return false;
    }
    out.taken = taken != 0;
    ++read_;
    return true;
}

void
TraceReader::reset()
{
    err_ = Err();
    in_.clear();
    in_.seekg(dataStart_);
    read_ = 0;
}

namespace {

/** writeTraceFile() into the file it opened, up to the cleanup. */
Expected<uint64_t>
writeStream(std::ofstream& out, const std::string& path, TraceSource& src)
{
    const auto io = [](std::string detail) {
        return Err(ErrCode::Io, "trace.write", std::move(detail));
    };
    const std::string name = src.name();
    out.write(kMagic.data(), static_cast<std::streamsize>(kMagic.size()));
    writeRaw(out, kTraceFormatVersion);
    const auto name_len = static_cast<uint32_t>(name.size());
    writeRaw(out, name_len);
    out.write(name.data(), static_cast<std::streamsize>(name_len));
    const std::streampos count_pos = out.tellp();
    uint64_t count = 0;
    writeRaw(out, count);
    if (!out)
        return io("failed writing trace header to '" + path + "'");
    BranchRecord rec;
    while (src.next(rec)) {
        writeRaw(out, rec.pc);
        writeRaw(out, rec.instructionsBefore);
        const uint8_t taken = rec.taken ? 1 : 0;
        writeRaw(out, taken);
        if (!out)
            return io("failed writing record " + std::to_string(count) +
                      " to trace file '" + path + "' (disk full?)");
        ++count;
    }
    if (const Err* e = src.lastError())
        return *e;
    out.seekp(count_pos);
    writeRaw(out, count);
    out.flush();
    if (!out)
        return io("failed back-patching record count into trace file '" +
                  path + "' (disk full?)");
    out.close();
    if (out.fail())
        return io("failed closing trace file '" + path + "'");
    return count;
}

} // namespace

Expected<uint64_t>
writeTraceFile(const std::string& path, TraceSource& src)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return Err(ErrCode::Io, "trace.write",
                   "cannot create trace file '" + path + "'");
    // From here on the file is this call's (created or truncated), so
    // a failure removes what it wrote.
    Expected<uint64_t> written = writeStream(out, path, src);
    std::error_code ec;
    if (!written.ok() && std::filesystem::is_regular_file(path, ec))
        std::filesystem::remove(path, ec);
    return written;
}

} // namespace tagecon
