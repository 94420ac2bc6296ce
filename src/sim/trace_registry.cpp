#include "sim/trace_registry.hpp"

#include <algorithm>
#include <fstream>

#include "obs/metrics.hpp"
#include "trace/cbp_ascii.hpp"
#include "trace/profiles.hpp"
#include "trace/trace_io.hpp"
#include "util/failpoint.hpp"
#include "util/text.hpp"

namespace tagecon {

namespace {

constexpr const char* kFilePrefix = "file:";

/** On-disk formats a "file:" spec can point at. */
enum class TraceFileFormat {
    Tcbt,  ///< binary trace_io format (magic "TCBT")
    Ascii, ///< CBP-style ASCII, plain or gzipped
};

/**
 * Sniff the format from the file's leading bytes: "TCBT" is the
 * binary format, anything else (including the gzip magic) is handed
 * to the ASCII reader, which deals with compression itself.
 */
bool
detectTraceFileFormat(const std::string& path, TraceFileFormat& out,
                      std::string& error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open trace file '" + path + "'";
        return false;
    }
    char magic[4] = {0, 0, 0, 0};
    in.read(magic, 4);
    out = (in.gcount() == 4 && magic[0] == 'T' && magic[1] == 'C' &&
           magic[2] == 'B' && magic[3] == 'T')
              ? TraceFileFormat::Tcbt
              : TraceFileFormat::Ascii;
    return true;
}

/**
 * The check of a trace spec that validateTraceSpec() and
 * openTraceSource() share; sets @p format for a file spec. A .tcbt
 * header is left to the caller (probeTrace() when validating,
 * TraceReader::open() when opening), so an open reads it once.
 */
Err
checkTraceSpec(const TraceSpec& spec, TraceFileFormat& format)
{
    if (spec.kind == TraceSpec::Kind::Synthetic) {
        if (isKnownProfile(spec.key))
            return {};
        return Err(ErrCode::BadSpec, "trace.open",
                   "unknown trace '" + spec.key +
                       "' (use a profile name, file:PATH, cbp1, cbp2 "
                       "or all)");
    }
    std::string err;
    if (!detectTraceFileFormat(spec.key, format, err))
        return Err(ErrCode::NotFound, "trace.open", std::move(err));
    if (format == TraceFileFormat::Tcbt)
        return {};
    // The ASCII probe reads up to the first data line, catching files
    // that open but carry a foreign format before a sweep starts.
    if (!probeCbpAsciiFile(spec.key, &err))
        return Err(ErrCode::Parse, "trace.open", std::move(err));
    return {};
}

/** A set alias and the profile names it expands to. */
struct TraceSet {
    const char* alias;
    std::vector<std::string> (*names)();
};

const TraceSet kTraceSets[] = {
    {"all", [] { return allTraceNames(); }},
    {"cbp1", [] { return traceNames(BenchmarkSet::Cbp1); }},
    {"cbp2", [] { return traceNames(BenchmarkSet::Cbp2); }},
};

const TraceSet*
findTraceSet(const std::string& alias)
{
    const auto it = std::find_if(
        std::begin(kTraceSets), std::end(kTraceSets),
        [&](const TraceSet& set) { return alias == set.alias; });
    return it == std::end(kTraceSets) ? nullptr : it;
}

} // namespace

std::string
TraceSpec::spec() const
{
    return kind == Kind::File ? kFilePrefix + key : key;
}

bool
parseTraceSpec(const std::string& text, TraceSpec& out,
               std::string* error)
{
    if (toLower(text).rfind(kFilePrefix, 0) == 0) {
        out.kind = TraceSpec::Kind::File;
        out.key = text.substr(std::string(kFilePrefix).size());
        if (out.key.empty()) {
            if (error)
                *error = "trace spec '" + text + "' names no file path";
            return false;
        }
        return true;
    }
    if (text.empty()) {
        if (error)
            *error = "empty trace spec";
        return false;
    }
    out.kind = TraceSpec::Kind::Synthetic;
    out.key = text;
    return true;
}

bool
validateTraceSpec(const TraceSpec& spec, std::string* error)
{
    TraceFileFormat format = TraceFileFormat::Ascii; // unset for a profile
    Err e = checkTraceSpec(spec, format);
    if (e.ok() && format == TraceFileFormat::Tcbt) {
        if (const auto probed = probeTrace(spec.key); !probed.ok())
            e = probed.error();
    }
    if (e.failed() && error)
        *error = e.detail;
    return e.ok();
}

bool
resolveTraceSpecs(const std::vector<std::string>& args,
                  std::vector<std::string>& out, std::string& error)
{
    out.clear();
    std::vector<std::string> expanded;
    for (const auto& arg : args) {
        if (const TraceSet* set = findTraceSet(toLower(arg))) {
            const auto names = set->names();
            expanded.insert(expanded.end(), names.begin(), names.end());
        } else {
            expanded.push_back(arg);
        }
    }
    for (const auto& item : expanded) {
        TraceSpec spec;
        if (!parseTraceSpec(item, spec, &error) ||
            !validateTraceSpec(spec, &error))
            return false;
        out.push_back(spec.spec());
    }
    if (out.empty()) {
        error = "no traces named";
        return false;
    }
    return true;
}

namespace {

Expected<std::unique_ptr<TraceSource>>
openTraceSourceImpl(const TraceSpec& spec, uint64_t branches,
                    uint64_t seed_salt)
{
    if (failpoints::anyArmed()) {
        if (auto injected = failpoints::check("trace.open"))
            return std::move(*injected);
    }
    TraceFileFormat format = TraceFileFormat::Ascii;
    if (Err invalid = checkTraceSpec(spec, format); invalid.failed())
        return invalid;
    if (spec.kind == TraceSpec::Kind::Synthetic) {
        if (branches == 0) {
            return Err(ErrCode::BadSpec, "trace.open",
                       "synthetic trace '" + spec.key +
                           "' needs a nonzero branch count");
        }
        return std::unique_ptr<TraceSource>(
            std::make_unique<SyntheticTrace>(
                makeTrace(spec.key, branches, seed_salt)));
    }

    // Recorded streams: seed_salt does not apply; branches caps the
    // replay (0 = the whole file). Each call opens its own handle so
    // parallel sweep cells never share reader state.
    if (format == TraceFileFormat::Tcbt) {
        auto opened = TraceReader::open(spec.key);
        if (!opened.ok())
            return opened.error();
        auto reader = opened.take();
        if (branches != 0 && reader->totalRecords() > branches)
            return std::unique_ptr<TraceSource>(
                std::make_unique<LimitedTrace>(std::move(reader),
                                               branches));
        return std::unique_ptr<TraceSource>(std::move(reader));
    }
    auto opened = CbpAsciiReader::open(spec.key);
    if (!opened.ok())
        return opened.error();
    std::unique_ptr<TraceSource> src = opened.take();
    if (branches != 0)
        src = std::make_unique<LimitedTrace>(std::move(src), branches);
    return src;
}

} // namespace

Expected<std::unique_ptr<TraceSource>>
openTraceSource(const TraceSpec& spec, uint64_t branches,
                uint64_t seed_salt)
{
    auto opened = openTraceSourceImpl(spec, branches, seed_salt);
    // Open counts are a pure function of the workload (sweep plans and
    // stream admission schedules are), so this is a deterministic
    // metric despite ticking on worker threads. The handle is looked
    // up once per process: a serve opens a trace per stream.
    static obs::Counter& sources_opened =
        obs::counter("trace.sources.opened");
    if (opened.ok())
        sources_opened.add();
    return opened;
}

Expected<std::unique_ptr<TraceSource>>
openTraceSource(const std::string& spec, uint64_t branches,
                uint64_t seed_salt)
{
    TraceSpec parsed;
    std::string err;
    if (!parseTraceSpec(spec, parsed, &err))
        return Err(ErrCode::BadSpec, "trace.open", std::move(err));
    return openTraceSource(parsed, branches, seed_salt);
}

} // namespace tagecon
