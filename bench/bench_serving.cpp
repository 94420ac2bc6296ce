/**
 * @file
 * Multi-stream serving throughput bench: drives the ServingEngine
 * (src/serve/) over a large stream population — thousands of simulated
 * "users", each with its own trace position and predictor state — and
 * reports wall-clock throughput (streams/sec, predictions/sec) and
 * the p50/p99 of the engine's serve.turn.ns histogram (microseconds
 * per scheduling turn) at several worker counts.
 *
 * The committed BENCH_serving.json at the repo root is this bench's
 * --report=json output. Accuracy columns are deterministic (identical
 * across every row — the engine's bit-identity property); timing
 * columns are wall clock and vary by host.
 *
 * Flags: --streams=N (default 10000), --branches=N per stream
 * (default 2000), --spec=..., --pool=N, --batch=N, --jobs=a,b,c
 * (worker counts to sweep; default "1,0" where 0 = hardware
 * concurrency), --report=text|csv|json, --csv.
 */

#include <iostream>
#include <thread>

#include "obs/metrics.hpp"
#include "serve/serving_engine.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table_printer.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    const CliArgs args(argc, argv);
    args.rejectUnknownFlags({"streams", "branches", "spec", "pool",
                             "batch", "jobs", "traces", "report",
                             "csv"});

    const uint64_t num_streams =
        args.getUintInRange("streams", 10000, 1, 10000000);
    const uint64_t branches = args.getUint("branches", 2000);
    const std::string spec = args.getString("spec", "tage64k+sfc");
    const unsigned pool = static_cast<unsigned>(
        args.getUintInRange("pool", 8, 0, 1u << 20));
    const unsigned batch = static_cast<unsigned>(
        args.getUintInRange("batch", 512, 1, 1u << 24));

    ReportFormat format = ReportFormat::Text;
    std::string error;
    if (args.getBool("csv", false))
        format = ReportFormat::Csv;
    if (args.has("report") &&
        !parseReportFormat(args.getString("report", "text"), format,
                           error))
        fatal(error);

    std::vector<unsigned> job_counts;
    for (const auto& item : args.getList("jobs", {"1", "0"})) {
        const unsigned j =
            static_cast<unsigned>(std::stoul(item));
        job_counts.push_back(
            j != 0 ? j : std::max(1u, std::thread::hardware_concurrency()));
    }

    std::vector<std::string> traces;
    if (!SweepPlan::resolveTraceArgs(args.getList("traces", {"cbp1"}),
                                     traces, error))
        fatal(error);

    const auto streams =
        StreamSet::roundRobin(num_streams, traces, branches, 0);

    Report report("serving",
                  "multi-stream serving throughput (" +
                      std::to_string(num_streams) + " streams x " +
                      std::to_string(branches) + " branches)",
                  "");
    report.addMeta("streams", std::to_string(num_streams));
    report.addMeta("branches/stream", std::to_string(branches));
    report.addMeta("spec", spec);
    report.addMeta("pool/shard", std::to_string(pool));
    report.addMeta("batch", std::to_string(batch));

    TextTable t;
    t.addColumn("jobs");
    t.addColumn("wall (s)");
    t.addColumn("streams/s");
    t.addColumn("predictions/s");
    t.addColumn("p50 turn (us)");
    t.addColumn("p99 turn (us)");
    t.addColumn("misp/KI");
    t.addColumn("MKP");

    obs::setMetricsEnabled(true);
    const obs::TimingHistogram& turn_ns =
        obs::timingHistogram("serve.turn.ns");
    for (const unsigned jobs : job_counts) {
        obs::resetAllMetrics();
        ServeOptions opts;
        opts.spec = spec;
        opts.jobs = jobs;
        opts.poolPerShard = pool;
        opts.batch = batch;
        ServingEngine engine(opts);
        ServeResult result;
        if (!engine.serve(streams, result, error))
            fatal(error);
        const double wall = result.wallSeconds;
        auto per_second = [wall](uint64_t count) {
            return wall > 0.0 ? static_cast<double>(count) / wall : 0.0;
        };
        t.addRow({std::to_string(jobs), TextTable::num(wall, 3),
                  TextTable::num(per_second(result.streamsServed), 1),
                  TextTable::num(per_second(result.totalBranches), 0),
                  TextTable::num(turn_ns.quantile(0.50) / 1000.0, 1),
                  TextTable::num(turn_ns.quantile(0.99) / 1000.0, 1),
                  TextTable::num(result.aggregate.mpki(), 3),
                  TextTable::num(result.aggregate.totalMkp(), 1)});
    }

    report.addTable(ReportTable{"throughput", "", std::move(t)});
    report.addBlank();
    report.addText("accuracy columns (misp/KI, MKP) are deterministic "
                   "and identical across rows — the engine's "
                   "bit-identity property; timing columns are wall "
                   "clock.");
    report.emit(format, std::cout);
    return 0;
}
