/**
 * @file
 * Materialize the synthetic CBP-1/CBP-2 stand-in benchmark suites to
 * binary trace files, so experiments can replay the exact same branch
 * streams (the role the championship trace downloads played for the
 * paper), then verify a round trip.
 *
 * Flags: --out=DIR (default ./traces) --branches=N (default 1M)
 *        --set=cbp1|cbp2|all (default all)
 */

#include <filesystem>
#include <iostream>

#include "trace/profiles.hpp"
#include "trace/trace_io.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table_printer.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    CliArgs args(argc, argv);
    args.rejectUnknownFlags({"out", "branches", "set"});
    const std::string out_dir = args.getString("out", "traces");
    const uint64_t branches = args.getUint("branches", 1000000);
    const std::string set = args.getString("set", "all");

    std::vector<std::string> names;
    if (set == "cbp1") {
        names = traceNames(BenchmarkSet::Cbp1);
    } else if (set == "cbp2") {
        names = traceNames(BenchmarkSet::Cbp2);
    } else if (set == "all") {
        names = allTraceNames();
    } else {
        fatal("--set must be cbp1, cbp2 or all");
    }

    std::filesystem::create_directories(out_dir);

    TextTable t;
    t.addColumn("trace", TextTable::Align::Left);
    t.addColumn("branches");
    t.addColumn("instructions");
    t.addColumn("taken %");
    t.addColumn("file");

    for (const auto& name : names) {
        SyntheticTrace src = makeTrace(name, branches);
        const std::string path = out_dir + "/" + name + ".trace";

        if (const auto written = writeTraceFile(path, src); !written.ok())
            fatal(written.error().detail);

        // Round-trip check: the file replays bit-identically.
        src.reset();
        auto opened = TraceReader::open(path);
        if (!opened.ok())
            fatal(opened.error().detail);
        TraceReader& reader = *opened.value();
        uint64_t instructions = 0;
        uint64_t taken = 0;
        BranchRecord expected;
        BranchRecord actual;
        while (src.next(expected)) {
            if (!reader.next(actual) || actual.pc != expected.pc ||
                actual.taken != expected.taken ||
                actual.instructionsBefore !=
                    expected.instructionsBefore) {
                fatal("round-trip mismatch in " + path);
            }
            instructions += uint64_t{expected.instructionsBefore} + 1;
            taken += expected.taken ? 1 : 0;
        }

        t.addRow({name, std::to_string(branches),
                  std::to_string(instructions),
                  TextTable::num(100.0 * static_cast<double>(taken) /
                                     static_cast<double>(branches),
                                 1),
                  path});
    }

    t.render(std::cout);
    std::cout << "\nwrote " << names.size() << " traces to " << out_dir
              << "/ (replay with TraceReader, see README)\n";
    return 0;
}
