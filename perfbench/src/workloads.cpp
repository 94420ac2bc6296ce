#include "workloads.hpp"

#include <algorithm>

#include "util/wall_clock.hpp"

namespace perfbench {

using namespace tagecon;

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> all = [] {
        std::vector<Workload> v;

        // The grid every paper table and figure runs. One live
        // predictor at a time; the adaptive row drives the scalar
        // predict/update path, the other three the batched one.
        Workload sweep;
        sweep.name = "paper-sweep";
        sweep.kind = WorkloadKind::Sweep;
        sweep.specs = {"tage16k+prob7+sfc", "tage64k+prob7+sfc",
                       "tage256k+prob7+sfc",
                       "tage64k+prob7+adaptive+sfc"};
        sweep.branches = 20000;
        v.push_back(sweep);

        // ~500 streams per shard for 8 resident slots: nearly every
        // 64-branch turn admits (constructs + restores) one predictor
        // and evicts (snapshots) another.
        Workload evict;
        evict.name = "serve-evict";
        evict.kind = WorkloadKind::Serve;
        evict.specs = {"tage64k+sfc"};
        evict.branches = 512;
        evict.streams = 2000;
        evict.pool = 8;
        evict.batch = 64;
        v.push_back(evict);
        return v;
    }();
    return all;
}

const Workload*
findWorkload(const std::string& name)
{
    for (const auto& w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

bool
sameResult(const UnitResult& a, const UnitResult& b)
{
    if (a.ok != b.ok || a.allocations != b.allocations ||
        a.stats.instructions() != b.stats.instructions())
        return false;
    for (size_t c = 0; c < kNumPredictionClasses; ++c) {
        const auto cls = static_cast<PredictionClass>(c);
        if (a.stats.predictions(cls) != b.stats.predictions(cls) ||
            a.stats.mispredictions(cls) != b.stats.mispredictions(cls))
            return false;
    }
    return a.confusion.highCorrect() == b.confusion.highCorrect() &&
           a.confusion.highWrong() == b.confusion.highWrong() &&
           a.confusion.lowCorrect() == b.confusion.lowCorrect() &&
           a.confusion.lowWrong() == b.confusion.lowWrong();
}

uint64_t
digest(const std::vector<UnitResult>& units)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const auto& u : units) {
        mix(u.ok ? 1 : 0);
        mix(u.allocations);
        mix(u.stats.instructions());
        for (size_t c = 0; c < kNumPredictionClasses; ++c) {
            const auto cls = static_cast<PredictionClass>(c);
            mix(u.stats.predictions(cls));
            mix(u.stats.mispredictions(cls));
        }
        mix(u.confusion.highCorrect());
        mix(u.confusion.highWrong());
        mix(u.confusion.lowCorrect());
        mix(u.confusion.lowWrong());
    }
    return h;
}

bool
prepare(const Workload& w, uint64_t seed, Prepared& out,
        std::string& error)
{
    const uint64_t t0 = wallclock::monotonicNanos();
    std::vector<std::string> traces;
    if (!SweepPlan::resolveTraceArgs({"all"}, traces, error))
        return false;
    if (w.kind == WorkloadKind::Sweep) {
        out.plan = SweepPlan::over(w.specs, std::move(traces), w.branches,
                                   seed);
    } else {
        out.streams =
            StreamSet::roundRobin(w.streams, traces, w.branches, seed);
        ServeOptions opts;
        opts.spec = w.specs.front();
        opts.jobs = 1;
        opts.poolPerShard = w.pool;
        opts.batch = w.batch;
        out.engine.emplace(std::move(opts));
    }
    const uint64_t t1 = wallclock::monotonicNanos();
    const bool valid = w.kind == WorkloadKind::Sweep
                           ? out.plan.validate(&error)
                           : out.engine->validate(&error);
    const uint64_t t2 = wallclock::monotonicNanos();
    out.setupSeconds = wallclock::secondsBetween(t0, t2);
    out.validateSeconds = wallclock::secondsBetween(t1, t2);
    return valid;
}

bool
runRound(const Workload& w, Prepared& p, RoundResult& out,
         std::string& error)
{
    out = RoundResult{};
    if (w.kind == WorkloadKind::Sweep) {
        const uint64_t t0 = wallclock::monotonicNanos();
        std::vector<RunResult> cells = runSweep(p.plan);
        out.wallSeconds =
            wallclock::secondsBetween(t0, wallclock::monotonicNanos());
        out.units.reserve(cells.size());
        for (auto& rr : cells) {
            UnitResult u;
            u.stats = rr.stats;
            u.confusion = rr.confusion;
            u.allocations = rr.allocations;
            u.ok = rr.stats.totalPredictions() == p.plan.branchesPerTrace;
            out.branches += rr.stats.totalPredictions();
            out.failedUnits += u.ok ? 0 : 1;
            out.units.push_back(std::move(u));
        }
        return true;
    }

    ServeResult res;
    const uint64_t t0 = wallclock::monotonicNanos();
    const bool served = p.engine->serve(p.streams, res, error);
    out.wallSeconds =
        wallclock::secondsBetween(t0, wallclock::monotonicNanos());
    if (!served)
        return false;
    out.units.reserve(res.perStream.size());
    for (auto& sr : res.perStream) {
        UnitResult u;
        u.stats = sr.stats;
        u.confusion = sr.confusion;
        u.allocations = sr.allocations;
        u.ok = sr.status == StreamStatus::Ok &&
               sr.branchesServed == w.branches;
        out.failedUnits += u.ok ? 0 : 1;
        out.units.push_back(std::move(u));
    }
    out.branches = res.totalBranches;
    return true;
}

std::vector<size_t>
checkSample(size_t units, uint64_t seed)
{
    // 16 units at a seed-dependent offset and an even stride, so every
    // spec row of the sweep and every shard of a serve is visited.
    constexpr size_t kSample = 16;
    std::vector<size_t> out;
    if (units == 0)
        return out;
    const size_t n = std::min(kSample, units);
    const size_t stride = units / n;
    const size_t offset = static_cast<size_t>(seed % stride);
    for (size_t k = 0; k < n; ++k)
        out.push_back(offset + k * stride);
    return out;
}

UnitRecipe
unitRecipe(const Workload& w, const Prepared& p, size_t i)
{
    if (w.kind == WorkloadKind::Sweep) {
        const size_t per_row = p.plan.traces.size();
        return {p.plan.specs[i / per_row], p.plan.traces[i % per_row],
                p.plan.branchesPerTrace, p.plan.seedSalt};
    }
    const StreamDesc& d = p.streams[i];
    return {p.engine->options().spec, d.trace, d.branches, d.seedSalt};
}

} // namespace perfbench
