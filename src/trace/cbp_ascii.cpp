#include "trace/cbp_ascii.hpp"

#include <array>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/failpoint.hpp"

#if TAGECON_HAVE_ZLIB
#include <zlib.h>
#endif

namespace tagecon {

/**
 * Line source over a plain or (with zlib) gzip-compressed file; the
 * non-fatal open lets both the reader and the registry probe share it.
 */
class CbpLineSource
{
  public:
    ~CbpLineSource() { close(); }

    bool
    open(const std::string& path, std::string& error)
    {
#if TAGECON_HAVE_ZLIB
        // gzopen reads uncompressed files transparently, so one code
        // path serves both.
        gz_ = gzopen(path.c_str(), "rb");
        if (!gz_) {
            error = "cannot open trace file '" + path + "'";
            return false;
        }
        return true;
#else
        if (isGzipFile(path)) {
            error = "'" + path +
                    "' is gzip-compressed but this build has no zlib; "
                    "decompress it first (gunzip) or rebuild with zlib";
            return false;
        }
        in_.open(path);
        if (!in_) {
            error = "cannot open trace file '" + path + "'";
            return false;
        }
        return true;
#endif
    }

    bool
    getline(std::string& line)
    {
#if TAGECON_HAVE_ZLIB
        line.clear();
        std::array<char, 4096> buf;
        bool got = false;
        for (;;) {
            if (!gzgets(static_cast<gzFile>(gz_), buf.data(),
                        static_cast<int>(buf.size())))
                return got;
            got = true;
            line += buf.data();
            if (!line.empty() && line.back() == '\n') {
                line.pop_back();
                return true;
            }
        }
#else
        return static_cast<bool>(std::getline(in_, line));
#endif
    }

    void
    rewind()
    {
#if TAGECON_HAVE_ZLIB
        gzrewind(static_cast<gzFile>(gz_));
#else
        in_.clear();
        in_.seekg(0);
#endif
    }

    void
    close()
    {
#if TAGECON_HAVE_ZLIB
        if (gz_) {
            gzclose(static_cast<gzFile>(gz_));
            gz_ = nullptr;
        }
#endif
    }

  private:
#if TAGECON_HAVE_ZLIB
    void* gz_ = nullptr;
#else
    std::ifstream in_;
#endif
};

namespace {

/**
 * Parse a trace-field number: decimal, or hex with an 0x prefix.
 * Deliberately NOT strtoull's base-0 autodetection, which would read
 * a zero-padded decimal field ("0123") as octal and silently remap
 * branch PCs.
 */
bool
parseTraceNumber(const std::string& text, uint64_t& out,
                 std::string& why)
{
    if (text.empty() || text.front() == '-' || text.front() == '+') {
        why = "not an unsigned number";
        return false;
    }
    const bool hex = text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    const char* start = text.c_str() + (hex ? 2 : 0);
    errno = 0;
    char* end = nullptr;
    const uint64_t v = std::strtoull(start, &end, hex ? 16 : 10);
    if (end == start) {
        why = "not a number";
        return false;
    }
    if (*end != '\0') {
        why = std::string("trailing garbage '") + end + "'";
        return false;
    }
    if (errno == ERANGE) {
        why = "out of range";
        return false;
    }
    out = v;
    return true;
}

bool
isSkippableLine(const std::string& line)
{
    for (const char ch : line) {
        if (std::isspace(static_cast<unsigned char>(ch)))
            continue;
        return ch == '#';
    }
    return true; // all whitespace
}

} // namespace

bool
parseCbpAsciiLine(const std::string& line, BranchRecord& out,
                  std::string& why)
{
    std::istringstream is(line);
    std::string pc_text, taken_text, instr_text, extra;
    is >> pc_text >> taken_text;
    if (pc_text.empty() || taken_text.empty()) {
        why = "expected '<pc> <taken> [<instructions>]'";
        return false;
    }
    if (!parseTraceNumber(pc_text, out.pc, why)) {
        why = "bad pc '" + pc_text + "': " + why;
        return false;
    }
    if (taken_text == "1" || taken_text == "T" || taken_text == "t") {
        out.taken = true;
    } else if (taken_text == "0" || taken_text == "N" ||
               taken_text == "n") {
        out.taken = false;
    } else {
        why = "bad taken flag '" + taken_text + "' (want 1/0/T/N)";
        return false;
    }
    out.instructionsBefore = 0;
    if (is >> instr_text) {
        uint64_t instr = 0;
        if (!parseTraceNumber(instr_text, instr, why) ||
            instr > UINT32_MAX) {
            why = "bad instruction count '" + instr_text + "'";
            return false;
        }
        out.instructionsBefore = static_cast<uint32_t>(instr);
    }
    if (is >> extra) {
        why = "trailing garbage '" + extra + "'";
        return false;
    }
    return true;
}

bool
isGzipFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    unsigned char magic[2] = {0, 0};
    in.read(reinterpret_cast<char*>(magic), 2);
    return in.gcount() == 2 && magic[0] == 0x1f && magic[1] == 0x8b;
}

std::string
cbpAsciiTraceName(const std::string& path)
{
    std::string base = std::filesystem::path(path).filename().string();
    auto strip = [&](const std::string& ext) {
        if (base.size() > ext.size() &&
            base.compare(base.size() - ext.size(), ext.size(), ext) == 0)
            base.resize(base.size() - ext.size());
    };
    strip(".gz");
    const auto dot = base.rfind('.');
    if (dot != std::string::npos && dot > 0)
        base.resize(dot);
    return base;
}

bool
probeCbpAsciiFile(const std::string& path, std::string* error)
{
    CbpLineSource src;
    std::string err;
    if (!src.open(path, err)) {
        if (error)
            *error = err;
        return false;
    }
    std::string line;
    uint64_t line_no = 0;
    while (src.getline(line)) {
        ++line_no;
        if (isSkippableLine(line))
            continue;
        BranchRecord rec;
        std::string why;
        if (!parseCbpAsciiLine(line, rec, why)) {
            if (error)
                *error = "'" + path + "' line " +
                         std::to_string(line_no) +
                         " is not an ASCII trace record: " + why;
            return false;
        }
        return true; // first data line parses
    }
    return true; // empty / comment-only traces are valid
}

CbpAsciiReader::CbpAsciiReader(Opened, const std::string& path,
                               std::unique_ptr<CbpLineSource> in)
    : path_(path), name_(cbpAsciiTraceName(path)), in_(std::move(in))
{
}

Expected<std::unique_ptr<CbpAsciiReader>>
CbpAsciiReader::open(const std::string& path)
{
    auto src = std::make_unique<CbpLineSource>();
    std::string error;
    if (!src->open(path, error)) {
        // A file that won't open is NotFound; a gzip-without-zlib
        // refusal is an unsupported input, not a missing one.
        const ErrCode code = error.find("no zlib") != std::string::npos
                                 ? ErrCode::Unsupported
                                 : ErrCode::NotFound;
        return Err(code, "trace.open", std::move(error));
    }
    return std::unique_ptr<CbpAsciiReader>(
        new CbpAsciiReader(Opened{}, path, std::move(src)));
}

CbpAsciiReader::~CbpAsciiReader() = default;

bool
CbpAsciiReader::getLine(std::string& line)
{
    return in_->getline(line);
}

bool
CbpAsciiReader::next(BranchRecord& out)
{
    if (err_.failed())
        return false;
    if (failpoints::anyArmed()) {
        if (auto injected = failpoints::check("trace.read")) {
            err_ = std::move(*injected);
            return false;
        }
    }
    std::string line;
    while (getLine(line)) {
        ++lineNo_;
        if (isSkippableLine(line))
            continue;
        std::string why;
        if (!parseCbpAsciiLine(line, out, why)) {
            // Latch instead of fatal(): report through lastError() so
            // one bad trace quarantines one stream, not the process.
            err_ = Err(ErrCode::Parse, "trace.read",
                       "'" + path_ + "' line " +
                           std::to_string(lineNo_) +
                           " is not an ASCII trace record: " + why);
            return false;
        }
        ++produced_;
        return true;
    }
    return false;
}

void
CbpAsciiReader::reset()
{
    err_ = Err();
    in_->rewind();
    lineNo_ = 0;
    produced_ = 0;
}

} // namespace tagecon
