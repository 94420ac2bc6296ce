/**
 * @file
 * Multi-stream serving driver: N independent prediction streams —
 * each its own trace position and predictor state — multiplexed over a
 * fixed worker pool with sharded dispatch, plus predictor checkpoint /
 * restore:
 *
 *   tagecon_serve --streams=10000 --spec=tage64k+sfc --traces=cbp1 \
 *                 --branches=2000 --jobs=8
 *
 * Flags:
 *   --streams=N          streams to serve (round-robin over --traces;
 *                        default 64)
 *   --spec=SPEC          registry spec for every stream's predictor
 *                        (default tage64k+sfc)
 *   --traces=...         trace specs and/or set aliases (cbp1 / cbp2 /
 *                        all; default cbp1); stream i serves trace
 *                        i mod count, salted per stream id
 *   --branches=N         branches per stream (default 10000)
 *   --seed=N             base seed salt (stream 0 is canonical)
 *   --jobs=N             worker threads, 1-1024. Per-stream results
 *                        are bit-identical at any value.
 *   --shards=N           dispatch shards (default 4 x jobs)
 *   --pool=N             resident predictors per shard; streams beyond
 *                        it are parked as snapshot blobs between
 *                        batches (default 8; 0 = unbounded)
 *   --batch=N            predictions per stream per turn (default 512)
 *   --checkpoint-dir=D   write each finished stream's state as
 *                        D/stream-<id>.tcsp
 *   --restore-dir=D      warm-start streams from D/stream-<id>.tcsp
 *                        when present (missing files cold-start)
 *   --digests            report each stream's checkpoint-blob digest
 *   --per-stream         one output row per stream after the summary
 *                        (with status / fault / retries columns)
 *   --report=FMT         text (default), csv, or json; csv omits the
 *                        banner and wall-clock timing so output can be
 *                        diffed byte for byte across --jobs
 *   --csv                alias for --report=csv
 *   --faults=SPEC        arm fault-injection sites, e.g.
 *                        "ckpt.read:key=3;trace.read:rate=0.01,seed=7"
 *                        (see util/failpoint.hpp for the grammar)
 *   --strict             fail fast on the first stream error instead
 *                        of quarantining the stream
 *   --retries=N          attempts for retryable checkpoint-dir I/O
 *                        (default 3; 1 disables retry)
 *   --metrics            append the obs metrics tables to the report
 *                        (deterministic counters; plus the wall-clock
 *                        stage timing table in non-CSV views)
 *   --metrics-out=PATH   write the Prometheus-style metrics dump to
 *                        PATH ("-" = stdout). The dump's
 *                        "# --- deterministic ---" section is
 *                        byte-identical at any --jobs for a fixed
 *                        workload configuration; implies --metrics.
 *   --trace-out=PATH     collect spans and write a Chrome trace_event
 *                        JSON file ("-" = stdout) — open it in
 *                        chrome://tracing or https://ui.perfetto.dev
 */

#include <filesystem>
#include <iostream>

#include "obs/metrics.hpp"
#include "obs/metrics_export.hpp"
#include "obs/span_trace.hpp"
#include "serve/serving_engine.hpp"
#include "sim/registry.hpp"
#include "sim/reporting.hpp"
#include "sim/sweep.hpp"
#include "util/cli.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/table_printer.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    const CliArgs args(argc, argv);

    args.rejectUnknownFlags(
        {"streams", "spec", "traces", "branches", "seed", "jobs",
         "shards", "pool", "batch", "checkpoint-dir", "restore-dir",
         "digests", "per-stream", "report", "csv", "faults", "strict",
         "retries", "metrics", "metrics-out", "trace-out"});

    ServeOptions opts;
    opts.spec = args.getString("spec", "tage64k+sfc");
    opts.jobs =
        static_cast<unsigned>(args.getUintInRange("jobs", 1, 1, 1024));
    opts.shards = static_cast<unsigned>(
        args.getUintInRange("shards", 0, 0, 1u << 20));
    opts.poolPerShard = static_cast<unsigned>(
        args.getUintInRange("pool", 8, 0, 1u << 20));
    opts.batch = static_cast<unsigned>(
        args.getUintInRange("batch", 512, 1, 1u << 24));
    opts.checkpointDir = args.getString("checkpoint-dir", "");
    opts.restoreDir = args.getString("restore-dir", "");
    opts.computeDigests = args.getBool("digests", false);
    opts.strict = args.getBool("strict", false);
    opts.retryAttempts = static_cast<unsigned>(
        args.getUintInRange("retries", 3, 1, 64));

    std::string fault_error;
    if (const std::string faults = args.getString("faults", "");
        !faults.empty() && !failpoints::arm(faults, &fault_error))
        fatal("--faults: " + fault_error);

    const uint64_t num_streams =
        args.getUintInRange("streams", 64, 1, 10000000);
    const uint64_t branches = args.getUint("branches", 10000);
    const uint64_t seed = args.getUint("seed", 0);
    const bool per_stream = args.getBool("per-stream", false);
    const std::string metrics_out = args.getString("metrics-out", "");
    const std::string trace_out = args.getString("trace-out", "");
    const bool metrics =
        args.getBool("metrics", false) || !metrics_out.empty();

    ReportFormat format = ReportFormat::Text;
    std::string error;
    if (args.getBool("csv", false))
        format = ReportFormat::Csv;
    if (args.has("report") &&
        !parseReportFormat(args.getString("report", "text"), format,
                           error))
        fatal(error);

    std::vector<std::string> traces;
    if (!SweepPlan::resolveTraceArgs(args.getList("traces", {"cbp1"}),
                                     traces, error))
        fatal(error);

    if (!opts.checkpointDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.checkpointDir, ec);
        if (ec)
            fatal("--checkpoint-dir: cannot create '" +
                  opts.checkpointDir + "': " + ec.message());
    }

    ServingEngine engine(opts);
    if (!engine.validate(&error))
        fatal(error);

    if (metrics)
        obs::setMetricsEnabled(true);
    if (!trace_out.empty())
        obs::startTracing();

    const auto streams =
        StreamSet::roundRobin(num_streams, traces, branches, seed);
    ServeResult result;
    if (!engine.serve(streams, result, error))
        fatal(error);
    if (!trace_out.empty())
        obs::stopTracing();

    Report report("serve",
                  "tagecon_serve: " + std::to_string(num_streams) +
                      " stream(s) x " +
                      engine.options().spec,
                  "");
    report.addMeta("spec", engine.options().spec);
    report.addMeta("traces", std::to_string(traces.size()));
    report.addMeta("branches/stream", std::to_string(branches));
    report.addMeta("seed-salt", std::to_string(seed));
    report.addMeta("jobs", std::to_string(opts.jobs));
    report.setShowBanner(format != ReportFormat::Csv);

    TextTable totals;
    totals.addColumn("metric", TextTable::Align::Left);
    totals.addColumn("value");
    totals.addRow({"streams served",
                   std::to_string(result.streamsServed)});
    totals.addRow({"streams quarantined",
                   std::to_string(result.streamsQuarantined)});
    totals.addRow({"streams restored",
                   std::to_string(result.streamsRestored)});
    totals.addRow({"branches served",
                   std::to_string(result.totalBranches)});
    totals.addRow({"retries", std::to_string(result.totalRetries)});
    totals.addRow({"allocs", std::to_string(result.totalAllocations)});
    totals.addRow({"misp/KI", TextTable::num(result.aggregate.mpki(), 3)});
    totals.addRow({"misp rate (MKP)",
                   TextTable::num(result.aggregate.totalMkp(), 1)});
    totals.addRow({"high cov",
                   TextTable::frac(result.confusion.highCoverage())});
    totals.addRow({"storage/predictor (Kbit)",
                   TextTable::num(
                       static_cast<double>(result.storageBits) / 1024.0,
                       1)});
    report.addTable(ReportTable{"totals", "serve totals",
                                std::move(totals)});

    report.addBlank();
    report.addTable(ReportTable{"classes", "pooled per-class MPrate",
                                classRateTable(result.aggregate)});

    if (per_stream) {
        TextTable t;
        t.addColumn("stream");
        t.addColumn("trace", TextTable::Align::Left);
        t.addColumn("status", TextTable::Align::Left);
        // "code@site" of the quarantining fault; detail text stays out
        // of the row so CSV output diffs byte for byte across --jobs.
        t.addColumn("fault", TextTable::Align::Left);
        t.addColumn("retries");
        t.addColumn("branches");
        t.addColumn("resumed-at");
        t.addColumn("misp/KI");
        t.addColumn("misp rate (MKP)");
        // Both config-invariant: allocations ride in snapshots across
        // evictions, checkpoint blobs are bit-identical by contract.
        t.addColumn("allocs");
        t.addColumn("ckpt-bytes");
        if (opts.computeDigests)
            t.addColumn("state-digest");
        for (const auto& s : result.perStream) {
            const bool ok = s.status == StreamStatus::Ok;
            std::vector<std::string> row = {
                std::to_string(s.id),
                s.trace,
                ok ? "ok" : "quarantined",
                ok ? "-"
                   : std::string(errCodeName(s.fault.code)) + "@" +
                         s.fault.site,
                std::to_string(s.retries),
                std::to_string(s.branchesServed),
                std::to_string(s.resumedAt),
                TextTable::num(s.stats.mpki(), 3),
                TextTable::num(s.stats.totalMkp(), 1),
                std::to_string(s.allocations),
                std::to_string(s.checkpointBytes)};
            if (opts.computeDigests)
                row.push_back(std::to_string(s.stateDigest));
            t.addRow(row);
        }
        report.addBlank();
        report.addTable(
            ReportTable{"per-stream", "per-stream results",
                        std::move(t)});
    }

    // Wall-clock timing is the one non-deterministic section; the CSV
    // view omits it so output diffs byte for byte across --jobs. Turn
    // latency is the serve.turn.ns row of --metrics.
    if (format != ReportFormat::Csv) {
        const double wall = result.wallSeconds;
        auto per_second = [wall](uint64_t count) {
            return wall > 0.0 ? static_cast<double>(count) / wall : 0.0;
        };
        TextTable timing;
        timing.addColumn("metric", TextTable::Align::Left);
        timing.addColumn("value");
        timing.addRow({"wall (s)", TextTable::num(wall, 3)});
        timing.addRow(
            {"streams/s",
             TextTable::num(per_second(result.streamsServed), 1)});
        timing.addRow(
            {"predictions/s",
             TextTable::num(per_second(result.totalBranches), 0)});
        report.addBlank();
        report.addTable(ReportTable{"timing", "throughput (wall clock)",
                                    std::move(timing)});
    }

    obs::MetricsSnapshot snapshot;
    if (metrics) {
        snapshot = obs::snapshotMetrics();
        report.addBlank();
        obs::addMetricsTables(report, snapshot,
                              format != ReportFormat::Csv);
    }

    report.emit(format, std::cout);

    if (!metrics_out.empty()) {
        if (Err e = obs::writePrometheusFile(snapshot, metrics_out);
            e.failed())
            fatal("--metrics-out: " + e.message());
    }
    if (!trace_out.empty()) {
        if (Err e = obs::writeChromeTraceFile(trace_out); e.failed())
            fatal("--trace-out: " + e.message());
    }
    return 0;
}
