/**
 * @file
 * CBP-style ASCII trace reader: one dynamic conditional branch per
 * line, the interchange format championship traces are commonly
 * distributed or dumped in. Implements TraceSource, so an ASCII trace
 * is a drop-in replacement for a synthetic profile or a binary .tcbt
 * file anywhere a spec names a trace.
 *
 * Line format (whitespace-separated):
 *
 *   <pc> <taken> [<instructionsBefore>]
 *
 *   pc      branch address, decimal or hex with a 0x prefix
 *   taken   1 / 0 / T / N (case-insensitive)
 *   instructionsBefore
 *           optional count of non-branch instructions since the
 *           previous record (default 0)
 *
 * Blank lines and lines starting with '#' are skipped. When the
 * library is built with zlib (TAGECON_HAVE_ZLIB), gzip-compressed
 * files are read transparently — the reader is handed the file path
 * and detects compression itself; without zlib a gzipped input is
 * rejected with a clear message.
 */

#ifndef TAGECON_TRACE_CBP_ASCII_HPP
#define TAGECON_TRACE_CBP_ASCII_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "trace/trace_source.hpp"
#include "util/errors.hpp"

namespace tagecon {

/** Internal line source over a plain or gzipped file (cbp_ascii.cpp). */
class CbpLineSource;

/**
 * Parse one ASCII trace line into @p out. Returns false with the
 * reason in @p why on a malformed line. Comment / blank lines are the
 * caller's job to skip; this expects a data line.
 */
bool parseCbpAsciiLine(const std::string& line, BranchRecord& out,
                       std::string& why);

/** True when the file at @p path starts with the gzip magic bytes. */
bool isGzipFile(const std::string& path);

/**
 * Validate @p path as an ASCII trace without fatal()ing: the file must
 * open (and decompress, when gzipped) and every line up to the first
 * data line must parse. Returns false with the reason in @p error
 * (when non-null). Used by the trace registry to reject bad specs
 * before a sweep starts.
 */
bool probeCbpAsciiFile(const std::string& path, std::string* error);

/**
 * Streaming reader for the ASCII format. name() is the file's
 * basename with any ".gz" and one trailing extension stripped
 * ("gcc.trace.gz" -> "gcc"), mirroring how CBP traces are referred to
 * by benchmark name.
 *
 * Readers are opened through open(), which reports failures as typed
 * Err values. A malformed line after open (or an injected "trace.read"
 * fault) ends the stream and is reported through lastError() instead
 * of killing the process.
 */
class CbpAsciiReader : public TraceSource
{
  public:
    /**
     * Open @p path; a missing file is NotFound and, without zlib, a
     * gzipped one is Unsupported.
     */
    static Expected<std::unique_ptr<CbpAsciiReader>>
    open(const std::string& path);

    ~CbpAsciiReader() override;

    CbpAsciiReader(const CbpAsciiReader&) = delete;
    CbpAsciiReader& operator=(const CbpAsciiReader&) = delete;

    bool next(BranchRecord& out) override;
    void reset() override;
    std::string name() const override { return name_; }

    const Err*
    lastError() const override
    {
        return err_.ok() ? nullptr : &err_;
    }

    /** Records produced since open / the last reset(). */
    uint64_t produced() const { return produced_; }

  private:
    struct Opened {}; // tag for the already-validated constructor

    CbpAsciiReader(Opened, const std::string& path,
                   std::unique_ptr<CbpLineSource> in);

    std::string path_;
    std::string name_;
    uint64_t lineNo_ = 0;
    uint64_t produced_ = 0;

    std::unique_ptr<CbpLineSource> in_;
    Err err_;

    bool getLine(std::string& line);
};

/** Display name an ASCII reader derives from @p path (see class doc). */
std::string cbpAsciiTraceName(const std::string& path);

} // namespace tagecon

#endif // TAGECON_TRACE_CBP_ASCII_HPP
