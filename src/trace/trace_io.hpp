/**
 * @file
 * Compact binary on-disk trace format (".tcbt"), so workloads can be
 * materialized once and replayed exactly (the CBP traces played this
 * role in the paper).
 *
 * Format (little-endian):
 *   header:  magic "TCBT" (4 bytes) | version u32 | name length u32 |
 *            name bytes | record count u64
 *   records: pc u64 | instructionsBefore u32 | taken u8
 */

#ifndef TAGECON_TRACE_TRACE_IO_HPP
#define TAGECON_TRACE_TRACE_IO_HPP

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>

#include "trace/trace_source.hpp"
#include "util/errors.hpp"

namespace tagecon {

/** Current on-disk format version. */
inline constexpr uint32_t kTraceFormatVersion = 1;

/** On-disk size of one record: pc u64 + instructionsBefore u32 + taken u8. */
inline constexpr uint64_t kTraceRecordBytes = 13;

/**
 * Parsed header of a trace file, as returned by probeTrace().
 */
struct TraceFileInfo {
    /** Display name embedded in the header. */
    std::string name;

    /** Record count the header promises. */
    uint64_t records = 0;

    /** Byte offset of the first record. */
    uint64_t dataStart = 0;

    /** On-disk file size in bytes. */
    uint64_t fileBytes = 0;
};

/**
 * Validate @p path as a binary trace file, returning an Err: checks
 * that the file opens, the magic/version/name header parses, and the
 * file size covers the promised record count. The Err taxonomy
 * distinguishes a missing file (NotFound), a foreign format (Corrupt),
 * an unsupported version (BadVersion) and a short file (Truncated).
 * This is the probe the trace registry uses to reject bad specs before
 * a sweep starts.
 */
Expected<TraceFileInfo> probeTrace(const std::string& path);

/**
 * Reader for the binary trace format; implements TraceSource so a file
 * trace is a drop-in replacement for a synthetic one. The header's
 * record count is validated against the actual file size at open time,
 * so a truncated file fails fast instead of mid-simulation.
 *
 * Readers are opened through open(), which reports failures as typed
 * Err values. A read failure after open (a file shrinking under the
 * reader, or an injected "trace.read" fault) ends the stream and is
 * reported through lastError() instead of killing the process.
 */
class TraceReader : public TraceSource
{
  public:
    /**
     * Open @p path, positioned at the first record; a missing file or
     * malformed header is a typed Err.
     */
    static Expected<std::unique_ptr<TraceReader>>
    open(const std::string& path);

    bool next(BranchRecord& out) override;
    void reset() override;
    std::string name() const override { return name_; }

    const Err*
    lastError() const override
    {
        return err_.ok() ? nullptr : &err_;
    }

    /** Total records the header promises. */
    uint64_t totalRecords() const { return total_; }

  private:
    struct Opened {}; // tag for the already-validated constructor

    TraceReader(Opened, const std::string& path, std::ifstream in,
                TraceFileInfo info);

    std::string path_;
    std::ifstream in_;
    std::string name_;
    uint64_t total_ = 0;
    uint64_t read_ = 0;
    std::streampos dataStart_;
    Err err_;
};

/**
 * Write all records of @p src (from its current position) to @p path
 * as a binary trace, back-patching the record count, and return how
 * many were written. The first failed create, write, back-patch or
 * close comes back as Err(Io) naming the path; when @p src stops on
 * an error (a malformed ASCII line, a truncated file) that Err does.
 * Either way a partial regular file is removed, so a failure never
 * yields a valid shorter trace (a device such as /dev/full stays); a
 * file the call cannot open is left as it was.
 */
Expected<uint64_t> writeTraceFile(const std::string& path,
                                  TraceSource& src);

} // namespace tagecon

#endif // TAGECON_TRACE_TRACE_IO_HPP
