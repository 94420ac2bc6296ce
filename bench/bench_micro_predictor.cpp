/**
 * @file
 * google-benchmark microbenchmarks: simulation throughput of the TAGE
 * predictor for the three paper sizes, split by phase so storage-
 * layout work is attributable:
 *
 *  - BM_TagePredictUpdate: the full per-branch loop (the sweep
 *    engine's unit of work),
 *  - BM_TagePredictUpdateBatched: the same work through the fused
 *    predictMany() step at batch 16 / 64 / 512 (second Arg). One
 *    state iteration processes a whole batch; compare per-branch
 *    costs via items_per_second,
 *  - BM_GradedPredictMany: the four paper-sweep registry stacks
 *    (tage16k/64k/256k+prob7+sfc and tage64k+prob7+adaptive+sfc)
 *    through GradedPredictor::predictMany() at batch 512 — the TAGE
 *    step plus grading, as the sweep drives it,
 *  - BM_GradedPredictManyLargeArena: the same step on a geometry whose
 *    tagged arena is several MiB (tage256k:logent=17+prob7+sfc),
 *    beyond every paper budget and most caches,
 *  - BM_SweepColumnShared: tage64k+prob7+sfc and
 *    tage64k+prob7+adaptive+sfc over one 20000-branch trace through
 *    runTrace(), /0 as two one-spec columns, /1 as one column whose
 *    adaptive stack follows the other's lookup rows (a lookup group,
 *    sim/experiment.hpp); items are branches of either stack,
 *  - BM_TagePredictOnly: the lookup path alone on warmed tables (the
 *    training path has no row of its own: update() trains from the
 *    lookup its paired predict() left in the predictor, so it cannot
 *    replay a recorded stream),
 *  - BM_TageAllocationStorm: cold-table behaviour — a random stream
 *    that mispredicts constantly, so the allocation scan and u-decay
 *    paths dominate,
 *  - BM_TagePredictUpdateClassify: incremental cost of confidence
 *    classification,
 *  - BM_SyntheticTraceGeneration: the trace generator's own cost.
 *  - BM_TageSnapshot / BM_TageRestore: one side each of the serving
 *    engine's eviction cycle on a warmed predictor — saveState() into
 *    a writer reserved at the blob size, and loadState() of that blob
 *    back into a used predictor. bytes_per_second is the blob size.
 *  - BM_SyntheticTraceOpen: constructing and freeing a synthetic trace
 *    (the program model a stream's first admission builds and its
 *    last turn frees), cycling over the 40 profiles.
 *  - BM_SyntheticTraceFill: TraceSource::fill() of a synthetic trace.
 *    /0 fills one SERV-1 trace 512 records at a time (a sweep column's
 *    chunk); /1 is a serve-evict shard: 500 open traces over the 40
 *    profiles, each filled 64 records per turn, round-robin, so every
 *    turn starts on a trace that is cold in cache.
 *  - BM_FailpointUnarmed / BM_FailpointArmed: cost of a fault-
 *    injection site check. Unarmed must stay a branch on one relaxed
 *    atomic load (~1 ns) — the sites sit on trace-read and checkpoint
 *    paths, so this is the price every production run pays.
 *  - BM_MetricsDisabled / BM_MetricsEnabled / BM_TimingHistogramRecord
 *    / BM_SpanDisabled: cost of an observability site. Disabled sites
 *    (the default) must stay one relaxed atomic load, same discipline
 *    as an unarmed failpoint; enabled counters are one relaxed
 *    fetch_add and a histogram record is a short binary search plus
 *    two fetch_adds. Committed in BENCH_obs.json.
 *
 * Run with --benchmark_out=BENCH_micro.json --benchmark_out_format=json
 * to extend the committed perf trajectory (see README, "Performance").
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/confidence_observer.hpp"
#include "obs/metrics.hpp"
#include "obs/span_trace.hpp"
#include "sim/experiment.hpp"
#include "sim/registry.hpp"
#include "tage/tage_predictor.hpp"
#include "trace/profiles.hpp"
#include "util/failpoint.hpp"
#include "util/random.hpp"

using namespace tagecon;

namespace {

constexpr uint64_t kTraceLength = 1u << 18;

/** Pre-materialized branch stream so generation cost is excluded. */
const VectorTrace&
sharedTrace()
{
    static const VectorTrace trace = [] {
        SyntheticTrace src = makeTrace("INT-1", kTraceLength);
        return materialize(src, kTraceLength);
    }();
    return trace;
}

TageConfig
configByIndex(int64_t idx)
{
    switch (idx) {
      case 0:
        return TageConfig::small16K();
      case 1:
        return TageConfig::medium64K();
      default:
        return TageConfig::large256K();
    }
}

void
BM_TagePredictUpdate(benchmark::State& state)
{
    const auto& records = sharedTrace().records();
    TagePredictor predictor(configByIndex(state.range(0)));
    size_t i = 0;
    for (auto _ : state) {
        const BranchRecord& rec = records[i];
        TagePrediction p = predictor.predict(rec.pc);
        benchmark::DoNotOptimize(p.taken);
        predictor.update(rec.pc, p, rec.taken);
        i = (i + 1) % records.size();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
BM_TagePredictUpdateBatched(benchmark::State& state)
{
    const auto& records = sharedTrace().records();
    const size_t batch = static_cast<size_t>(state.range(1));
    TagePredictor predictor(configByIndex(state.range(0)));
    std::vector<uint64_t> pcs(batch);
    std::vector<uint8_t> taken(batch);
    std::vector<TagePrediction> out(batch);
    size_t i = 0;
    for (auto _ : state) {
        // The fill loop is part of the measured cost on purpose: it is
        // the same buffering runTrace() and the serving engine do.
        for (size_t k = 0; k < batch; ++k) {
            const BranchRecord& rec = records[i];
            pcs[k] = rec.pc;
            taken[k] = rec.taken ? 1 : 0;
            i = (i + 1) % records.size();
        }
        predictor.predictMany(pcs, taken, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(batch));
}

/** The registry specs of perfbench's paper-sweep workload. */
const char* const kPaperSweepSpecs[] = {
    "tage16k+prob7+sfc", "tage64k+prob7+sfc", "tage256k+prob7+sfc",
    "tage64k+prob7+adaptive+sfc"};

/**
 * Geometries whose tagged arena outgrows the cache (~3 MiB here,
 * against the paper budgets' tens of KiB), so that a layout or
 * prefetch idea for large tables is measured rather than guessed.
 */
const char* const kLargeArenaSpecs[] = {"tage256k:logent=17+prob7+sfc"};

/** One predictMany() step of @p spec over the shared trace per batch. */
void
gradedPredictMany(benchmark::State& state, const char* spec)
{
    constexpr size_t kBatch = 512;
    const auto& records = sharedTrace().records();
    const auto predictor = makePredictor(spec);
    std::vector<uint64_t> pcs(kBatch);
    std::vector<uint8_t> taken(kBatch);
    std::vector<Prediction> out(kBatch);
    size_t i = 0;
    for (auto _ : state) {
        for (size_t k = 0; k < kBatch; ++k) {
            const BranchRecord& rec = records[i];
            pcs[k] = rec.pc;
            taken[k] = rec.taken ? 1 : 0;
            i = (i + 1) % records.size();
        }
        predictor->predictMany(pcs, taken, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetLabel(spec);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(kBatch));
}

void
BM_GradedPredictMany(benchmark::State& state)
{
    gradedPredictMany(state, kPaperSweepSpecs[state.range(0)]);
}

void
BM_GradedPredictManyLargeArena(benchmark::State& state)
{
    gradedPredictMany(state, kLargeArenaSpecs[state.range(0)]);
}

void
BM_SweepColumnShared(benchmark::State& state)
{
    constexpr uint64_t kBranches = 20000;
    static const VectorTrace shared_trace = [] {
        SyntheticTrace src = makeTrace("INT-1", kBranches);
        return materialize(src, kBranches);
    }();
    VectorTrace trace = shared_trace;
    const auto plain = makePredictor("tage64k+prob7+sfc");
    const auto adaptive = makePredictor("tage64k+prob7+adaptive+sfc");
    GradedPredictor* const column[] = {plain.get(), adaptive.get()};
    const bool shared = state.range(0) != 0;
    for (auto _ : state) {
        for (GradedPredictor* const p : column)
            p->reset();
        if (shared) {
            trace.reset();
            benchmark::DoNotOptimize(runTrace(trace, column));
        } else {
            for (GradedPredictor* const p : column) {
                trace.reset();
                benchmark::DoNotOptimize(runTrace(trace, *p));
            }
        }
    }
    state.SetLabel(shared ? "one shared column" : "two one-spec columns");
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                            static_cast<int64_t>(kBranches));
}

void
BM_TagePredictOnly(benchmark::State& state)
{
    const auto& records = sharedTrace().records();
    TagePredictor predictor(configByIndex(state.range(0)));
    // Warm the tables with one full pass so the measured lookups see
    // steady-state occupancy, then measure the lookup path alone
    // (predict() writes only the lookup rows: history stays fixed,
    // tables stay warm).
    for (const BranchRecord& rec : records) {
        const TagePrediction p = predictor.predict(rec.pc);
        predictor.update(rec.pc, p, rec.taken);
    }
    size_t i = 0;
    for (auto _ : state) {
        const TagePrediction p = predictor.predict(records[i].pc);
        benchmark::DoNotOptimize(p.taken);
        i = (i + 1) % records.size();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
BM_TageAllocationStorm(benchmark::State& state)
{
    // Cold-table stress: a wide random PC stream with random outcomes
    // never trains, so nearly every branch mispredicts and the
    // allocation scan / useful-counter decay dominate the profile.
    TagePredictor predictor(configByIndex(state.range(0)));
    XorShift128Plus rng(0xA110CA7E);
    for (auto _ : state) {
        const uint64_t r = rng.next();
        const uint64_t pc = (r >> 16) & 0x3FFFFC;
        const TagePrediction p = predictor.predict(pc);
        benchmark::DoNotOptimize(p.taken);
        predictor.update(pc, p, (r & 1) != 0);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    state.counters["allocs_per_branch"] = benchmark::Counter(
        static_cast<double>(predictor.allocations()) /
        static_cast<double>(predictor.updates()));
}

void
BM_TagePredictUpdateClassify(benchmark::State& state)
{
    const auto& records = sharedTrace().records();
    TagePredictor predictor(configByIndex(state.range(0)));
    ConfidenceObserver observer;
    uint64_t class_histogram[kNumPredictionClasses] = {};
    size_t i = 0;
    for (auto _ : state) {
        const BranchRecord& rec = records[i];
        TagePrediction p = predictor.predict(rec.pc);
        const PredictionClass cls = observer.classify(p);
        ++class_histogram[classIndex(cls)];
        observer.onResolve(p, rec.taken);
        predictor.update(rec.pc, p, rec.taken);
        i = (i + 1) % records.size();
    }
    benchmark::DoNotOptimize(class_histogram);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
BM_SyntheticTraceGeneration(benchmark::State& state)
{
    SyntheticTrace trace = makeTrace("SERV-1", ~uint64_t{0});
    BranchRecord rec;
    for (auto _ : state) {
        if (!trace.next(rec))
            trace.reset();
        benchmark::DoNotOptimize(rec.taken);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

/** A predictor of config @p idx warmed on the shared trace. */
TagePredictor
warmedPredictor(int64_t idx)
{
    TagePredictor predictor(configByIndex(idx));
    for (const BranchRecord& rec : sharedTrace().records()) {
        const TagePrediction p = predictor.predict(rec.pc);
        predictor.update(rec.pc, p, rec.taken);
    }
    return predictor;
}

void
BM_TageSnapshot(benchmark::State& state)
{
    const TagePredictor predictor = warmedPredictor(state.range(0));
    StateWriter sizing;
    predictor.saveState(sizing);
    const size_t blob_bytes = sizing.size();
    for (auto _ : state) {
        StateWriter w;
        w.reserve(blob_bytes);
        predictor.saveState(w);
        benchmark::DoNotOptimize(w.data().data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(blob_bytes));
}

void
BM_TageRestore(benchmark::State& state)
{
    TagePredictor predictor = warmedPredictor(state.range(0));
    StateWriter w;
    predictor.saveState(w);
    const std::vector<uint8_t> blob = w.take();
    std::string error;
    bool ok = true;
    for (auto _ : state) {
        StateReader in(blob);
        ok = predictor.loadState(in, error);
        benchmark::DoNotOptimize(ok);
        benchmark::ClobberMemory();
    }
    if (!ok)
        state.SkipWithError(error.c_str());
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(blob.size()));
}

void
BM_SyntheticTraceOpen(benchmark::State& state)
{
    const std::vector<std::string> names = allTraceNames();
    size_t i = 0;
    for (auto _ : state) {
        SyntheticTrace trace = makeTrace(names[i], 512);
        benchmark::DoNotOptimize(&trace);
        i = (i + 1) % names.size();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
BM_SyntheticTraceFill(benchmark::State& state)
{
    const bool shard = state.range(0) == 1;
    const size_t chunk = shard ? 64 : 512;
    const size_t num_traces = shard ? 500 : 1;
    const std::vector<std::string> names = allTraceNames();
    std::vector<SyntheticTrace> traces;
    traces.reserve(num_traces);
    for (size_t i = 0; i < num_traces; ++i) {
        traces.push_back(shard ? makeTrace(names[i % names.size()],
                                           ~uint64_t{0}, i)
                               : makeTrace("SERV-1", ~uint64_t{0}));
    }
    std::vector<BranchRecord> records(chunk);
    size_t i = 0;
    for (auto _ : state) {
        const size_t n = traces[i].fill(records);
        benchmark::DoNotOptimize(records.data());
        benchmark::DoNotOptimize(n);
        benchmark::ClobberMemory();
        i = i + 1 < num_traces ? i + 1 : 0;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(chunk));
}

void
BM_FailpointUnarmed(benchmark::State& state)
{
    failpoints::disarm();
    for (auto _ : state) {
        if (failpoints::anyArmed()) {
            auto e = failpoints::check("trace.read");
            benchmark::DoNotOptimize(e);
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
BM_FailpointArmed(benchmark::State& state)
{
    // A rule that never fires (key targets a stream that never runs):
    // measures the armed bookkeeping cost, not error construction.
    failpoints::ScopedFaults faults("trace.read:key=999999999");
    failpoints::KeyScope scope(7);
    for (auto _ : state) {
        if (failpoints::anyArmed()) {
            auto e = failpoints::check("trace.read");
            benchmark::DoNotOptimize(e);
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
BM_MetricsDisabled(benchmark::State& state)
{
    obs::setMetricsEnabled(false);
    obs::Counter& c = obs::counter("bench.metrics.disabled");
    for (auto _ : state) {
        c.add();
        benchmark::DoNotOptimize(&c);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
BM_MetricsEnabled(benchmark::State& state)
{
    obs::setMetricsEnabled(true);
    obs::Counter& c = obs::counter("bench.metrics.enabled");
    for (auto _ : state) {
        c.add();
        benchmark::DoNotOptimize(&c);
    }
    obs::setMetricsEnabled(false);
    c.reset();
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
BM_TimingHistogramRecord(benchmark::State& state)
{
    obs::setMetricsEnabled(true);
    obs::TimingHistogram& h =
        obs::timingHistogram("bench.metrics.histogram");
    // Vary the sample so the bucket binary search sees the spread a
    // real latency distribution would.
    uint64_t v = 50;
    for (auto _ : state) {
        h.record(v);
        v = (v * 13) % 2000003;
    }
    obs::setMetricsEnabled(false);
    h.reset();
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
BM_SpanDisabled(benchmark::State& state)
{
    // With tracing off a SpanScope never reads the clock or touches the
    // thread-local buffer — one relaxed load decides. (No enabled
    // variant: live spans buffer until drained, so a benchmark loop
    // would measure allocator growth, not the span itself.)
    for (auto _ : state) {
        TAGECON_SPAN("bench.span.disabled");
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

BENCHMARK(BM_TagePredictUpdate)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_TagePredictUpdateBatched)
    ->ArgsProduct({{0, 1, 2}, {16, 64, 512}});
BENCHMARK(BM_GradedPredictMany)->DenseRange(0, 3);
BENCHMARK(BM_GradedPredictManyLargeArena)->Arg(0);
BENCHMARK(BM_SweepColumnShared)->Arg(0)->Arg(1);
BENCHMARK(BM_TagePredictOnly)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_TageAllocationStorm)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_TagePredictUpdateClassify)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_SyntheticTraceGeneration);
BENCHMARK(BM_TageSnapshot)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_TageRestore)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_SyntheticTraceOpen);
BENCHMARK(BM_SyntheticTraceFill)->Arg(0)->Arg(1);
BENCHMARK(BM_FailpointUnarmed);
BENCHMARK(BM_FailpointArmed);
BENCHMARK(BM_MetricsDisabled);
BENCHMARK(BM_MetricsEnabled);
BENCHMARK(BM_TimingHistogramRecord);
BENCHMARK(BM_SpanDisabled);

} // namespace

BENCHMARK_MAIN();
