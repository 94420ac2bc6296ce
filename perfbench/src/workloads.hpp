/**
 * @file
 * The benchmark's workloads and the calls that run them through the
 * public entry points users call: runSweep() for the (spec x trace)
 * grid and ServingEngine::serve() for the multi-stream engine.
 *
 * Every workload is a closed loop: all cells or streams are ready at
 * start and are served to exhaustion, so there is no arrival rate and
 * no backlog. The benchmark seed goes in as the sweep's seedSalt or
 * the serve's base_salt; the program synthesises every branch from
 * (profile, salt).
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/binary_metrics.hpp"
#include "core/class_stats.hpp"
#include "serve/serving_engine.hpp"
#include "sim/sweep.hpp"

namespace perfbench {

enum class WorkloadKind { Sweep, Serve };

/**
 * One pinned workload: its shape and sizes, over all 40 profiles, on
 * one worker (jobs=1), so the traced run can replay it in order.
 */
struct Workload {
    std::string name;
    WorkloadKind kind = WorkloadKind::Sweep;

    /** Sweep: the grid's rows. Serve: specs[0] is every stream's spec. */
    std::vector<std::string> specs;

    /** Branches per cell (sweep) or per stream (serve). */
    uint64_t branches = 0;

    /** Serve only: stream count and pool options (shards = 4). */
    uint64_t streams = 0;
    unsigned pool = 8;
    unsigned batch = 512;
};

/** The pinned workloads, in BENCHMARK.json order. */
const std::vector<Workload>& workloads();

/** The workload called @p name, or nullptr. */
const Workload* findWorkload(const std::string& name);

/** The deterministic outcome of one cell or stream. */
struct UnitResult {
    tagecon::ClassStats stats;
    tagecon::BinaryConfidenceMetrics confusion;
    uint64_t allocations = 0;

    /** False when the cell failed or the stream was quarantined. */
    bool ok = true;
};

/** True when two units carry identical counts. */
bool sameResult(const UnitResult& a, const UnitResult& b);

/** FNV-1a-64 over every unit's counts, in unit order. */
uint64_t digest(const std::vector<UnitResult>& units);

/**
 * A set-up workload: the validated sweep plan, or the validated engine
 * and its streams, plus how long the set-up calls took.
 */
struct Prepared {
    tagecon::SweepPlan plan;
    std::vector<tagecon::StreamDesc> streams;
    std::optional<tagecon::ServingEngine> engine;

    /** Wall time of all set-up calls, and of validate() alone. */
    double setupSeconds = 0.0;
    double validateSeconds = 0.0;
};

/**
 * The set-up calls before the first timed branch: resolveTraceArgs()
 * for "all", then SweepPlan::over() and validate() for a sweep, or
 * StreamSet::roundRobin(), the ServingEngine constructor and
 * validate() for a serve. Returns false with the reason in @p error.
 */
bool prepare(const Workload& w, uint64_t seed, Prepared& out,
             std::string& error);

/** One call of the workload's public entry point. */
struct RoundResult {
    /** Per cell (plan.cells() order) or per stream (input order). */
    std::vector<UnitResult> units;

    /** Branches predicted and trained. */
    uint64_t branches = 0;

    /** Wall time of the runSweep() / serve() call. */
    double wallSeconds = 0.0;

    /** Cells that produced no branches, or quarantined streams. */
    uint64_t failedUnits = 0;
};

/**
 * Run @p p through runSweep() or ServingEngine::serve(). Returns false
 * with the reason in @p error when serve() refuses the streams.
 */
bool runRound(const Workload& w, Prepared& p, RoundResult& out,
              std::string& error);

/** Units the output check re-runs through the scalar oracle. */
std::vector<size_t> checkSample(size_t units, uint64_t seed);

/** (spec, trace, branches, salt) of unit @p i of a prepared workload. */
struct UnitRecipe {
    std::string spec;
    std::string trace;
    uint64_t branches = 0;
    uint64_t salt = 0;
};

UnitRecipe unitRecipe(const Workload& w, const Prepared& p, size_t i);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
