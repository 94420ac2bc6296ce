/**
 * @file
 * tagecon_perfbench: one pinned end-to-end workload per invocation.
 *
 *   tagecon_perfbench --workload=paper-sweep --seed=1 --seconds=20
 *                     [--trace=1 --trace-out=PATH]
 *
 * The timed phase repeats set-up + one runSweep() / serve() call in
 * short rounds until --seconds have passed, with the host-speed
 * calibration before the first round and after every round, and
 * reports medians over the rounds in reference seconds. Every round's
 * results must equal the first round's, and a sample of cells or
 * streams is re-run through the scalar oracle.
 * With --trace=1, three traced iterations follow: the same call with
 * the obs counters, histograms and spans on, the work replayed through
 * the layers' functions, and the output check.
 * Each per-layer metric is the median over the iterations; the last
 * iteration's spans are written as Chrome JSON to --trace-out.
 *
 * Prints one JSON line: provenance, the stats digest, attempted and
 * failed units, and every metric with its unit. Exits 1 when any unit
 * failed or mismatched, 2 on a usage or build error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "layer_split.hpp"
#include "obs/metrics.hpp"
#include "obs/span_trace.hpp"
#include "replay.hpp"
#include "sim/report.hpp" // jsonEscape
#include "util/cli.hpp"
#include "util/simd.hpp"
#include "util/wall_clock.hpp"
#include "workloads.hpp"

using namespace tagecon;
using namespace perfbench;

namespace {

// Timings from an unoptimized or sanitized build say nothing about the
// program, so the benchmark refuses to report them.
#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                   \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

/** Rounds the timed phase runs even when --seconds is very short. */
constexpr size_t kMinRounds = 3;

/**
 * Set-ups per round. setup_s is the median over all of them, so one
 * cold set-up after a large round (fresh pages, cold caches) does not
 * decide it.
 */
constexpr size_t kSetupsPerRound = 5;

/**
 * Traced iterations. Each per-layer metric is the median over them, so
 * a ratio of two single-shot timings is not left to one noisy moment.
 */
constexpr size_t kTracedIterations = 3;

const char*
simdBackend()
{
#if defined(TAGECON_SIMD_SSE2)
    return "sse2";
#elif defined(TAGECON_SIMD_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** Process CPU time and minor faults, from getrusage(). */
struct Usage {
    double userNs = 0.0;
    double sysNs = 0.0;
    double minorFaults = 0.0;

    static Usage
    now()
    {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        auto ns = [](const timeval& tv) {
            return static_cast<double>(tv.tv_sec) * 1e9 +
                   static_cast<double>(tv.tv_usec) * 1e3;
        };
        return {ns(ru.ru_utime), ns(ru.ru_stime),
                static_cast<double>(ru.ru_minflt)};
    }

    Usage
    operator-(const Usage& o) const
    {
        return {userNs - o.userNs, sysNs - o.sysNs,
                minorFaults - o.minorFaults};
    }

    Usage&
    operator+=(const Usage& o)
    {
        userNs += o.userNs;
        sysNs += o.sysNs;
        minorFaults += o.minorFaults;
        return *this;
    }
};

/**
 * High-water RSS of this process image in MiB: VmHWM from
 * /proc/self/status. getrusage()'s ru_maxrss is not used because Linux
 * carries it across execve(), so it would report the launching
 * interpreter's footprint whenever that was larger.
 */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0.0;
}

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * The timed phase's outcome: per-round samples and the failures.
 * setupSeconds and branchesPerSecond are in reference seconds (see
 * calibrate.hpp); the other timings are wall time.
 */
struct Measurement {
    std::vector<double> setupSeconds;
    std::vector<double> validateSeconds;
    std::vector<double> wallSeconds;
    std::vector<double> branchesPerSecond;
    std::vector<double> wallBranchesPerSecond;
    std::vector<double> slowdowns;
    uint64_t branches = 0;
    Usage usage;

    Prepared prepared;
    RoundResult first;
    uint64_t firstDigest = 0;

    uint64_t attempted = 0;
    uint64_t failed = 0;
};

bool
measure(const Workload& w, uint64_t seed, double seconds, Measurement& m,
        std::string& error)
{
    const uint64_t start = wallclock::monotonicNanos();
    Calibration before = calibrate();
    for (size_t round = 0;; ++round) {
        const double elapsed =
            wallclock::secondsBetween(start, wallclock::monotonicNanos());
        if (round >= kMinRounds && elapsed >= seconds)
            break;
        Prepared p;
        std::vector<double> setups;
        for (size_t k = 0; k < kSetupsPerRound; ++k) {
            p = Prepared{};
            if (!prepare(w, seed, p, error))
                return false;
            setups.push_back(p.setupSeconds);
            m.validateSeconds.push_back(p.validateSeconds);
        }
        RoundResult r;
        const Usage usage = Usage::now();
        if (!runRound(w, p, r, error))
            return false;
        m.usage += Usage::now() - usage;

        const Calibration after = calibrate();
        if (after.checksum != before.checksum) {
            std::cerr << "perfbench: the calibration kernel's checksum "
                         "changed\n";
            ++m.failed;
        }
        const double slow = slowdown(before.seconds, after.seconds);
        before = after;
        for (const double s : setups)
            m.setupSeconds.push_back(s / slow);
        const double rate = static_cast<double>(r.branches) / r.wallSeconds;
        m.slowdowns.push_back(slow);
        m.wallSeconds.push_back(r.wallSeconds);
        m.wallBranchesPerSecond.push_back(rate);
        m.branchesPerSecond.push_back(rate * slow);
        m.branches += r.branches;
        m.attempted += r.units.size();
        m.failed += r.failedUnits;
        const uint64_t d = digest(r.units);
        if (round == 0) {
            m.firstDigest = d;
            m.first = std::move(r);
            m.prepared = std::move(p);
        } else if (d != m.firstDigest) {
            std::cerr << "perfbench: " << w.name << " round " << round
                      << " differs from the first\n";
            ++m.failed;
        }
    }
    return true;
}

/** Re-run a sample of units through the oracle; returns mismatches. */
uint64_t
checkOutputs(const Workload& w, uint64_t seed, const Measurement& m,
             ReplayStats& stats)
{
    uint64_t mismatches = 0;
    for (const size_t i : checkSample(m.first.units.size(), seed)) {
        const UnitResult expect =
            oracle(unitRecipe(w, m.prepared, i), i, stats);
        if (!sameResult(expect, m.first.units[i])) {
            std::cerr << "perfbench: " << w.name << " unit " << i
                      << " differs from the scalar oracle\n";
            ++mismatches;
        }
    }
    return mismatches;
}

/** Pooled accuracy of the first round: mpki, high_cov, high_mkp. */
void
accuracyMetrics(const RoundResult& r, std::vector<Metric>& out)
{
    ClassStats stats;
    BinaryConfidenceMetrics confusion;
    for (const auto& u : r.units) {
        stats.merge(u.stats);
        confusion.merge(u.confusion);
    }
    const double high = static_cast<double>(confusion.highCorrect() +
                                            confusion.highWrong());
    out.push_back({"mpki", stats.mpki(), "misp/kinstr"});
    out.push_back({"high_cov", confusion.highCoverage(), "ratio"});
    out.push_back({"high_mkp",
                   perKiloBranch(static_cast<double>(confusion.highWrong()),
                                 high),
                   "misp/khighpred"});
}

/** Everything one traced iteration reports. */
struct TracedPass {
    RoundResult engine;
    uint64_t admissions = 0;
    uint64_t evictions = 0;
    uint64_t predictions = 0;
    double turnP50Ns = 0.0;
    double turnP99Ns = 0.0;
    uint64_t turnSamples = 0;
    std::vector<obs::SpanEvent> engineEvents;

    double replaySeconds = 0.0;
    std::vector<obs::SpanEvent> replayEvents;
    ReplayStats replay;

    std::vector<obs::SpanEvent> checkEvents;
    ReplayStats check;
    uint64_t mismatches = 0;
};

/**
 * The replay half of a traced iteration: the same work through the
 * layers' functions, compared unit by unit with the untraced first
 * round and, for a serve, admission by admission with the engine.
 */
void
replay(const Workload& w, const Prepared& p, const Measurement& m,
       TracedPass& t)
{
    const uint64_t t0 = wallclock::monotonicNanos();
    const std::vector<UnitResult> units =
        w.kind == WorkloadKind::Sweep
            ? replaySweep(p.plan, t.replay)
            : replayServe(p.streams, p.engine->options(), t.replay);
    t.replaySeconds =
        wallclock::secondsBetween(t0, wallclock::monotonicNanos());
    t.replayEvents = obs::takeTraceEvents();
    // Per-stream results do not depend on the schedule, so the pool
    // counters check that the replay followed the engine's.
    if (w.kind == WorkloadKind::Serve &&
        (t.replay.admissions != t.admissions ||
         t.replay.snapshots != t.evictions)) {
        std::cerr << "perfbench: " << w.name
                  << " replay admitted/evicted differently from the engine\n";
        ++t.mismatches;
    }
    if (units.size() != m.first.units.size())
        ++t.mismatches;
    for (size_t i = 0; i < std::min(units.size(), m.first.units.size()); ++i) {
        if (!sameResult(units[i], m.first.units[i])) {
            std::cerr << "perfbench: " << w.name << " replay unit " << i
                      << " differs from the engine\n";
            ++t.mismatches;
        }
    }
}

/**
 * One traced iteration, all with spans on: the engine call with the
 * obs counters and histograms on, the replay, then the output check.
 */
bool
tracedIteration(const Workload& w, uint64_t seed, const Measurement& m,
                TracedPass& t, std::string& error)
{
    obs::resetAllMetrics();
    obs::setMetricsEnabled(true);
    obs::startTracing();
    Prepared p;
    const bool ran =
        prepare(w, seed, p, error) && runRound(w, p, t.engine, error);
    obs::setMetricsEnabled(false);
    if (!ran) {
        obs::stopTracing();
        return false;
    }
    t.admissions = obs::counter("serve.pool.admissions").value();
    t.evictions = obs::counter("serve.pool.evictions").value();
    t.predictions = obs::counter("serve.predictions").value();
    // The engine's own per-turn histogram: a serve turn, or a sweep
    // cell (the sweep's unit of scheduling).
    const obs::TimingHistogram& turns = obs::timingHistogram(
        w.kind == WorkloadKind::Sweep ? "sweep.cell.ns" : "serve.turn.ns");
    t.turnP50Ns = turns.quantile(0.50);
    t.turnP99Ns = turns.quantile(0.99);
    t.turnSamples = turns.count();
    t.engineEvents = obs::takeTraceEvents();
    if (digest(t.engine.units) != m.firstDigest) {
        std::cerr << "perfbench: " << w.name
                  << " traced call differs from the first round\n";
        ++t.mismatches;
    }

    replay(w, p, m, t);
    t.mismatches += checkOutputs(w, seed, m, t.check);
    t.checkEvents = obs::takeTraceEvents();
    obs::stopTracing();
    return true;
}

/** The per-layer metrics of a traced run. */
std::vector<Metric>
layerMetrics(const Workload& w, const Measurement& m, const TracedPass& t)
{
    const ReplayStats& check = t.check;
    std::vector<Metric> out;
    const double replay_ns = t.replaySeconds * 1e9;
    const LayerSplit replay = splitLayers(t.replayEvents);
    for (const char* layer : {"trace", "tage", "core", "sim", "serve"})
        out.push_back({std::string(layer) + ".share",
                       share(static_cast<double>(replay.layer(layer)),
                             replay_ns),
                       "ratio"});

    // Per-call costs pool the replay's and the output check's calls.
    std::vector<obs::SpanEvent> calls = t.replayEvents;
    calls.insert(calls.end(), t.checkEvents.begin(), t.checkEvents.end());
    const LayerSplit all = splitLayers(calls);
    const double batched = static_cast<double>(t.replay.batchedBranches +
                                               check.batchedBranches);
    const double scalar = static_cast<double>(t.replay.scalarBranches +
                                              check.scalarBranches);
    auto ns_per = [&](const char* name, double branches) {
        return share(static_cast<double>(all.name(name).totalNs), branches);
    };
    auto us_per_call = [&](const char* name) {
        const SpanTotals s = all.name(name);
        return share(static_cast<double>(s.totalNs),
                     static_cast<double>(s.calls)) /
               1e3;
    };
    out.push_back({"trace.fill_ns_per_branch",
                   ns_per("trace.fill", batched + scalar), "ns/branch"});
    out.push_back({"tage.predict_batched_ns_per_branch",
                   ns_per("tage.predict_batched", batched), "ns/branch"});
    out.push_back({"tage.predict_scalar_ns_per_branch",
                   ns_per("tage.predict_scalar", scalar), "ns/branch"});
    out.push_back({"core.fold_ns_per_branch",
                   ns_per("core.fold", batched + scalar), "ns/branch"});
    out.push_back({"tage.snapshot_us", us_per_call("tage.snapshot"), "us"});
    out.push_back({"tage.restore_us", us_per_call("tage.restore"), "us"});
    out.push_back(
        {"tage.snapshot_bytes",
         share(static_cast<double>(t.replay.snapshotBytes +
                                   check.snapshotBytes),
               static_cast<double>(t.replay.snapshots + check.snapshots)),
         "bytes"});

    const double branches = static_cast<double>(t.engine.branches);
    double allocs = 0.0;
    for (const auto& u : t.engine.units)
        allocs += static_cast<double>(u.allocations);
    out.push_back({"tage.allocs_per_kbranch", perKiloBranch(allocs, branches),
                   "allocs/kbranch"});
    out.push_back({"sim.make_predictor_us",
                   us_per_call("sim.make_predictor"), "us"});
    out.push_back({"sim.validate_us", median(m.validateSeconds) * 1e6, "us"});

    const double predictions = static_cast<double>(t.predictions);
    out.push_back({"serve.admissions_per_kbranch",
                   perKiloBranch(static_cast<double>(t.admissions),
                                 predictions),
                   "adm/kbranch"});
    out.push_back({"serve.evictions_per_kbranch",
                   perKiloBranch(static_cast<double>(t.evictions),
                                 predictions),
                   "evict/kbranch"});
    out.push_back({"engine.turn_p50_us", t.turnP50Ns / 1e3, "us"});
    out.push_back({"engine.turn_p99_us", t.turnP99Ns / 1e3, "us"});
    out.push_back({"engine.turn_samples", static_cast<double>(t.turnSamples),
                   "count"});
    out.push_back({"serve.parked_mib_peak",
                   static_cast<double>(t.replay.parkedPeakBytes) /
                       (1024.0 * 1024.0),
                   "MiB"});

    // serve() wall not explained by the layers below serve.
    const double engine_ns = t.engine.wallSeconds * 1e9;
    const double below = static_cast<double>(
        replay.layer("trace") + replay.layer("tage") + replay.layer("core") +
        replay.layer("sim"));
    out.push_back({"serve.unattributed_share",
                   w.kind == WorkloadKind::Serve
                       ? share(engine_ns - below, engine_ns)
                       : 0.0,
                   "ratio"});

    // Shard balance from the engine's own serve.shard spans; each
    // worker thread that served a shard counts once.
    double shard_sum = 0.0;
    double shard_max = 0.0;
    double shard_count = 0.0;
    std::set<uint32_t> workers;
    for (const auto& e : t.engineEvents) {
        if (std::string(e.name) != "serve.shard")
            continue;
        const double d = static_cast<double>(e.endNs - e.startNs);
        shard_sum += d;
        shard_max = std::max(shard_max, d);
        shard_count += 1.0;
        workers.insert(e.tid);
    }
    out.push_back({"serve.shard_imbalance",
                   share(shard_max, share(shard_sum, shard_count)),
                   "ratio"});
    out.push_back(
        {"serve.worker_idle_share",
         workers.empty()
             ? 0.0
             : 1.0 - share(shard_sum,
                           static_cast<double>(workers.size()) * engine_ns),
         "ratio"});

    const double cpu = m.usage.userNs + m.usage.sysNs;
    const double timed = static_cast<double>(m.branches);
    out.push_back({"proc.cpu_ns_per_branch", share(cpu, timed), "ns/branch"});
    out.push_back({"proc.sys_share", share(m.usage.sysNs, cpu), "ratio"});
    out.push_back({"proc.minor_faults_per_kbranch",
                   perKiloBranch(m.usage.minorFaults, timed),
                   "faults/kbranch"});

    out.push_back({"bench.layer_coverage",
                   share(static_cast<double>(replay.selfSum()), replay_ns),
                   "ratio"});
    out.push_back({"bench.trace_overhead",
                   share(t.engine.wallSeconds, median(m.wallSeconds)) - 1.0,
                   "ratio"});
    out.push_back({"bench.wall_branches_per_s",
                   median(m.wallBranchesPerSecond), "branches/s"});
    out.push_back({"bench.host_slowdown", median(m.slowdowns), "ratio"});
    return out;
}

/** Each metric's median over the traced iterations. */
std::vector<Metric>
medianOver(const std::vector<std::vector<Metric>>& iterations)
{
    std::vector<Metric> out = iterations.front();
    for (size_t j = 0; j < out.size(); ++j) {
        std::vector<double> values;
        for (const auto& it : iterations)
            values.push_back(it[j].value);
        out[j].value = median(std::move(values));
    }
    return out;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char** argv)
{
    CliArgs args(argc, argv);
    const std::string name = args.getString("workload", "");
    const uint64_t seed = args.getUint("seed", 1);
    const double seconds = args.getDouble("seconds", 10.0);
    const bool traced = args.getUint("trace", 0) != 0;
    const std::string trace_out = args.getString("trace-out", "");

    if (!kOptimized || kSanitized) {
        std::cerr << "perfbench: refusing to report timings from an "
                     "unoptimized or sanitized build\n";
        return 2;
    }
    const Workload* found = findWorkload(name);
    if (found == nullptr) {
        std::cerr << "perfbench: unknown workload '" << name << "'\n";
        return 2;
    }
    // Size overrides, for the benchmark's own tests.
    Workload w = *found;
    w.streams = args.getUint("streams", w.streams);
    w.branches = args.getUint("branches", w.branches);

    std::string error;
    Measurement m;
    if (!measure(w, seed, seconds, m, error)) {
        std::cerr << "perfbench: " << error << "\n";
        return 2;
    }

    std::vector<std::vector<Metric>> iterations;
    TracedPass last;
    if (traced) {
        for (size_t i = 0; i < kTracedIterations; ++i) {
            TracedPass t;
            if (!tracedIteration(w, seed, m, t, error)) {
                std::cerr << "perfbench: " << error << "\n";
                return 2;
            }
            m.failed += t.mismatches;
            iterations.push_back(layerMetrics(w, m, t));
            last = std::move(t);
        }
    } else {
        ReplayStats check;
        m.failed += checkOutputs(w, seed, m, check);
    }

    std::vector<Metric> metrics;
    metrics.push_back({"branches_per_s", median(m.branchesPerSecond),
                       "branches/s"});
    metrics.push_back({"setup_s", median(m.setupSeconds), "s"});
    metrics.push_back({"fail_ratio",
                       share(static_cast<double>(m.failed),
                             static_cast<double>(m.attempted)),
                       "ratio"});
    accuracyMetrics(m.first, metrics);
    if (traced) {
        for (auto& metric : medianOver(iterations))
            metrics.push_back(std::move(metric));
        if (!trace_out.empty()) {
            std::vector<obs::SpanEvent> events = last.engineEvents;
            for (const auto* part : {&last.replayEvents, &last.checkEvents})
                events.insert(events.end(), part->begin(), part->end());
            std::ofstream os(trace_out, std::ios::binary | std::ios::trunc);
            writeChromeJson(events, os);
            if (!os) {
                std::cerr << "perfbench: cannot write " << trace_out << "\n";
                return 2;
            }
        }
    }
    metrics.push_back({"peak_rss_mib", peakRssMib(), "MiB"});

    char digest_hex[17];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  static_cast<unsigned long long>(m.firstDigest));
    std::ostringstream os;
    os << "{\"workload\":\"" << jsonEscape(w.name) << "\",\"seed\":" << seed
       << ",\"rounds\":" << m.wallSeconds.size() << ",\"digest\":\""
       << digest_hex << "\",\"provenance\":{\"compiler\":\""
       << jsonEscape(compilerName()) << "\",\"build_type\":\""
       << PERFBENCH_BUILD_TYPE << "\",\"simd\":\"" << simdBackend()
       << "\",\"nproc\":" << std::thread::hardware_concurrency()
       << "},\"attempted\":" << m.attempted << ",\"failed\":" << m.failed
       << ",\"rounds_branches_per_s\":[";
    for (size_t i = 0; i < m.branchesPerSecond.size(); ++i)
        os << (i == 0 ? "" : ",") << number(m.branchesPerSecond[i]);
    os << "],\"rounds_slowdown\":[";
    for (size_t i = 0; i < m.slowdowns.size(); ++i)
        os << (i == 0 ? "" : ",") << number(m.slowdowns[i]);
    os << "],\"rounds_setup_s\":[";
    for (size_t i = 0; i < m.setupSeconds.size(); ++i)
        os << (i == 0 ? "" : ",") << number(m.setupSeconds[i]);
    os << "],\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); ++i)
        os << (i == 0 ? "" : ",") << "\"" << metrics[i].name
           << "\":{\"value\":" << number(metrics[i].value) << ",\"unit\":\""
           << metrics[i].unit << "\"}";
    os << "}}";
    std::cout << os.str() << std::endl;
    return m.failed == 0 ? 0 : 1;
}
