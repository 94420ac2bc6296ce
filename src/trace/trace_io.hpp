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
 * Validate @p path as a binary trace file without fatal()ing: checks
 * that the file opens, the magic/version/name header parses, and the
 * file size covers the promised record count. The Err taxonomy
 * distinguishes a missing file (NotFound), a foreign format (Corrupt),
 * an unsupported version (BadVersion) and a short file (Truncated).
 * This is the probe the trace registry uses to reject bad specs before
 * a sweep starts.
 */
Expected<TraceFileInfo> probeTrace(const std::string& path);

/**
 * Streaming writer for the binary trace format. The record count is
 * back-patched on close(), so traces can be written without knowing
 * their length up front. Every write is checked: a failed record
 * write, back-patch or flush is fatal() (naming the path) rather than
 * silently producing a truncated file that still reports success.
 */
class TraceWriter
{
  public:
    /**
     * Open @p path for writing and emit the header.
     * fatal() when the file cannot be created or the header write fails.
     */
    TraceWriter(const std::string& path, const std::string& trace_name);

    /** Closes (and back-patches) if still open. */
    ~TraceWriter();

    TraceWriter(const TraceWriter&) = delete;
    TraceWriter& operator=(const TraceWriter&) = delete;

    /** Append one record; fatal() when the stream write fails. */
    void write(const BranchRecord& rec);

    /**
     * Finish: back-patch the record count, flush and close the file.
     * fatal() when any of those steps fails — a trace file either
     * closes clean or the process dies telling you which file is bad.
     */
    void close();

    /** Records written so far. */
    uint64_t written() const { return count_; }

  private:
    std::string path_;
    std::ofstream out_;
    std::streampos countPos_;
    uint64_t count_ = 0;
    bool open_ = false;
};

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
 * and return how many were written. When @p src stops on an error (a
 * malformed ASCII line, a truncated file) that Err is returned and the
 * partial output is removed, so a bad input never yields a valid
 * shorter trace.
 */
Expected<uint64_t> writeTraceFile(const std::string& path,
                                  TraceSource& src);

} // namespace tagecon

#endif // TAGECON_TRACE_TRACE_IO_HPP
