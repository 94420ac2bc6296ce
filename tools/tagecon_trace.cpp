/**
 * @file
 * Trace-file toolbox: materialize, inspect and dump the trace files
 * the sweep engine ingests via "file:" specs.
 *
 * Subcommands:
 *
 *   tagecon_trace convert --from=SPEC --out=PATH \
 *                         [--branches=N] [--seed=N]
 *       Write the records of any trace spec (a synthetic profile name
 *       like "MM-3", or file:PATH for an existing .tcbt / ASCII[.gz]
 *       file) to a binary .tcbt file. --branches is the generated
 *       length for synthetic specs and a replay cap for file specs
 *       (0 = the whole file); --seed salts synthetic generation.
 *
 *   tagecon_trace inspect --in=PATH
 *       Print the file's header/identity (format, embedded name,
 *       promised records) and streamed statistics (records, taken
 *       rate, instructions, unique branch PCs).
 *
 *   tagecon_trace head --in=PATH [--count=N]
 *       Dump the first N records (default 10) as text.
 *
 * A record that fails to read (a malformed ASCII line, a truncated
 * .tcbt) is fatal in every subcommand: the message names the file and
 * line, and convert removes its partial output.
 */

#include <fstream>
#include <iomanip>
#include <iostream>
#include <unordered_set>

#include "sim/trace_registry.hpp"
#include "trace/cbp_ascii.hpp"
#include "trace/trace_io.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

using namespace tagecon;

namespace {

constexpr const char* kUsage =
    "usage: tagecon_trace convert --from=SPEC --out=PATH"
    " [--branches=N] [--seed=N]\n"
    "       tagecon_trace inspect --in=PATH\n"
    "       tagecon_trace head --in=PATH [--count=N]";

/** openTraceSource(), or fatal() with its error. */
std::unique_ptr<TraceSource>
openOrFatal(const std::string& spec, uint64_t branches, uint64_t seed = 0)
{
    auto opened = openTraceSource(spec, branches, seed);
    if (!opened.ok())
        fatal(opened.error().detail);
    return opened.take();
}

int
cmdConvert(const CliArgs& args)
{
    args.rejectUnknownFlags({"from", "out", "branches", "seed"});
    const std::string from = args.getString("from", "");
    const std::string out = args.getString("out", "");
    if (from.empty() || out.empty())
        fatal("convert needs --from=SPEC and --out=PATH\n" +
              std::string(kUsage));
    TraceSpec spec;
    std::string error;
    if (!parseTraceSpec(from, spec, &error))
        fatal(error);
    // Synthetic specs default to 1M branches; file specs default to
    // the whole file (cap 0).
    const uint64_t default_branches =
        spec.kind == TraceSpec::Kind::Synthetic ? 1000000 : 0;
    const uint64_t branches =
        args.getUint("branches", default_branches);
    const uint64_t seed = args.getUint("seed", 0);

    const auto src = openOrFatal(from, branches, seed);
    // A failed write, or a source that fails mid-stream, leaves no
    // output file behind.
    auto written = writeTraceFile(out, *src);
    if (!written.ok())
        fatal(written.error().detail);
    std::cout << "wrote " << written.value() << " records of '"
              << src->name() << "' to " << out << "\n";
    return 0;
}

/** Streamed whole-trace statistics shared by inspect. */
struct TraceStats {
    uint64_t records = 0;
    uint64_t taken = 0;
    uint64_t instructions = 0;
    size_t uniquePcs = 0;
};

TraceStats
collectStats(TraceSource& src)
{
    TraceStats s;
    std::unordered_set<uint64_t> pcs;
    BranchRecord rec;
    while (src.next(rec)) {
        ++s.records;
        s.taken += rec.taken ? 1 : 0;
        s.instructions += uint64_t{rec.instructionsBefore} + 1;
        pcs.insert(rec.pc);
    }
    if (const Err* e = src.lastError())
        fatal(e->detail);
    s.uniquePcs = pcs.size();
    return s;
}

/** True when @p path starts with the binary format's "TCBT" magic. */
bool
looksLikeTcbt(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    char m[4] = {0, 0, 0, 0};
    in.read(m, 4);
    return in.gcount() == 4 && m[0] == 'T' && m[1] == 'C' &&
           m[2] == 'B' && m[3] == 'T';
}

int
cmdInspect(const CliArgs& args)
{
    args.rejectUnknownFlags({"in"});
    const std::string path = args.getString("in", "");
    if (path.empty())
        fatal("inspect needs --in=PATH\n" + std::string(kUsage));

    // Sniff the magic before probing so a *corrupt* .tcbt file is
    // reported as such (with the probe's error), not misdescribed as
    // an ASCII trace.
    TraceFileInfo info;
    const bool is_tcbt = looksLikeTcbt(path);
    if (is_tcbt) {
        auto probed = probeTrace(path);
        if (!probed.ok())
            fatal(probed.error().detail);
        info = probed.take();
    }
    std::cout << "file:    " << path << "\n";
    if (is_tcbt) {
        std::cout << "format:  tcbt (binary, version "
                  << kTraceFormatVersion << ")\n"
                  << "name:    " << info.name << "\n"
                  << "header:  " << info.records << " records, "
                  << info.fileBytes << " bytes on disk\n";
    } else {
        std::cout << "format:  ascii"
                  << (isGzipFile(path) ? " (gzip-compressed)" : "")
                  << "\n"
                  << "name:    " << cbpAsciiTraceName(path) << "\n";
    }

    const TraceStats s = collectStats(*openOrFatal("file:" + path, 0));
    const double taken_pct =
        s.records == 0
            ? 0.0
            : 100.0 * static_cast<double>(s.taken) /
                  static_cast<double>(s.records);
    std::cout << "records: " << s.records << "\n"
              << "taken:   " << s.taken << " (" << std::fixed
              << std::setprecision(1) << taken_pct << "%)\n"
              << "instrs:  " << s.instructions
              << " (including the branches)\n"
              << "static:  " << s.uniquePcs << " unique branch PCs\n";
    if (is_tcbt && s.records != info.records)
        fatal("'" + path + "' header promises " +
              std::to_string(info.records) + " records but " +
              std::to_string(s.records) + " were read");
    return 0;
}

int
cmdHead(const CliArgs& args)
{
    args.rejectUnknownFlags({"in", "count"});
    const std::string path = args.getString("in", "");
    if (path.empty())
        fatal("head needs --in=PATH\n" + std::string(kUsage));
    const uint64_t count = args.getUint("count", 10);

    const auto src = openOrFatal("file:" + path, count);
    BranchRecord rec;
    uint64_t shown = 0;
    std::cout << "# pc taken instructionsBefore\n";
    while (shown < count && src->next(rec)) {
        std::cout << "0x" << std::hex << rec.pc << std::dec << " "
                  << (rec.taken ? "T" : "N") << " "
                  << rec.instructionsBefore << "\n";
        ++shown;
    }
    if (const Err* e = src->lastError())
        fatal(e->detail);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const CliArgs args(argc, argv);
    if (args.positional().size() != 1)
        fatal(kUsage);
    const std::string& cmd = args.positional()[0];
    if (cmd == "convert")
        return cmdConvert(args);
    if (cmd == "inspect")
        return cmdInspect(args);
    if (cmd == "head")
        return cmdHead(args);
    fatal("unknown subcommand '" + cmd + "'\n" + std::string(kUsage));
}
