#include "replay.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <span>
#include <thread>

#include "core/graded_predictor.hpp"
#include "obs/span_trace.hpp"
#include "sim/registry.hpp"
#include "sim/trace_registry.hpp"
#include "trace/trace_source.hpp"

namespace perfbench {

using namespace tagecon;

namespace {

/** runTrace()'s and the serve turn's predictMany() chunk size. */
constexpr size_t kChunk = 512;

/** Reused per-chunk buffers, as in runTrace() and the serve turn. */
struct Chunk {
    std::vector<uint64_t> pcs;
    std::vector<uint8_t> taken;
    std::vector<uint64_t> insns;
    std::vector<Prediction> preds;

    explicit Chunk(size_t cap) : preds(cap)
    {
        pcs.reserve(cap);
        taken.reserve(cap);
        insns.reserve(cap);
    }
};

/**
 * Push up to @p limit branches through the three layers: a
 * TraceSource::next() batch fill, the predictor (predictMany() when the
 * family batches, else scalar predict()+update()), then the two
 * record() folds. Returns the branches consumed.
 */
size_t
step(TraceSource& source, GradedPredictor& predictor, bool batched,
     size_t limit, Chunk& c, UnitResult& u, ReplayStats& stats, uint64_t id)
{
    {
        obs::SpanScope span("trace.fill", id);
        c.pcs.clear();
        c.taken.clear();
        c.insns.clear();
        BranchRecord rec;
        while (c.pcs.size() < limit && source.next(rec)) {
            c.pcs.push_back(rec.pc);
            c.taken.push_back(rec.taken ? 1 : 0);
            c.insns.push_back(uint64_t{rec.instructionsBefore} + 1);
        }
    }
    const size_t n = c.pcs.size();
    if (n == 0)
        return 0;
    (batched ? stats.batchedBranches : stats.scalarBranches) += n;
    if (batched) {
        obs::SpanScope span("tage.predict_batched", id);
        predictor.predictMany(
            std::span<const uint64_t>(c.pcs.data(), n),
            std::span<const uint8_t>(c.taken.data(), n),
            std::span<Prediction>(c.preds.data(), n));
    } else {
        obs::SpanScope span("tage.predict_scalar", id);
        for (size_t k = 0; k < n; ++k) {
            c.preds[k] = predictor.predict(c.pcs[k]);
            predictor.update(c.pcs[k], c.preds[k], c.taken[k] != 0);
        }
    }
    {
        obs::SpanScope span("core.fold", id);
        for (size_t k = 0; k < n; ++k) {
            const bool mispredicted = c.preds[k].taken != (c.taken[k] != 0);
            u.stats.record(c.preds[k].cls, mispredicted, c.insns[k]);
            u.confusion.record(c.preds[k].confidence == ConfidenceLevel::High,
                               !mispredicted);
        }
    }
    return n;
}

std::unique_ptr<TraceSource>
open(const std::string& trace, uint64_t branches, uint64_t salt,
     uint64_t id)
{
    obs::SpanScope span("trace.open", id);
    auto opened = openTraceSource(trace, branches, salt);
    return opened.ok() ? opened.take() : nullptr;
}

std::unique_ptr<GradedPredictor>
make(const std::string& spec, uint64_t id)
{
    obs::SpanScope span("sim.make_predictor", id);
    return tryMakePredictor(spec, nullptr);
}

/** snapshot() into a blob; empty on failure. */
std::vector<uint8_t>
park(const GradedPredictor& predictor, ReplayStats& stats, uint64_t id)
{
    obs::SpanScope span("tage.snapshot", id);
    StateWriter w;
    std::string error;
    if (!predictor.snapshot(w, error))
        return {};
    ++stats.snapshots;
    stats.snapshotBytes += w.size();
    return w.take();
}

bool
unpark(GradedPredictor& predictor, const std::vector<uint8_t>& blob,
       uint64_t id)
{
    obs::SpanScope span("tage.restore", id);
    StateReader in(blob);
    std::string error;
    return predictor.restore(in, error) && in.exhausted();
}

} // namespace

std::vector<UnitResult>
replaySweep(const SweepPlan& plan, ReplayStats& stats)
{
    const std::vector<SweepCell> cells = plan.cells();
    std::vector<UnitResult> out(cells.size());
    Chunk chunk(kChunk);
    for (size_t i = 0; i < cells.size(); ++i) {
        obs::SpanScope span("sim.cell", i);
        const SweepCell& cell = cells[i];
        UnitResult& u = out[i];
        auto source = open(cell.trace, cell.branches, cell.seedSalt, i);
        auto predictor = make(cell.spec, i);
        if (!source || !predictor) {
            u.ok = false;
            continue;
        }
        const bool batched = predictor->hasBatchedPredict();
        while (step(*source, *predictor, batched, kChunk, chunk, u, stats, i) > 0) {
        }
        u.allocations = predictor->allocations();
        u.ok = source->lastError() == nullptr &&
               u.stats.totalPredictions() == cell.branches;
    }
    return out;
}

namespace {

/** Replay-side state of one stream (mirrors the engine's). */
struct ReplayStream {
    const StreamDesc* desc = nullptr;
    std::unique_ptr<TraceSource> trace;
    std::unique_ptr<GradedPredictor> predictor;
    std::vector<uint8_t> parked;
    bool started = false;
    bool done = false;
    UnitResult result;
};

} // namespace

std::vector<UnitResult>
replayServe(const std::vector<StreamDesc>& streams, const ServeOptions& opts,
            ReplayStats& stats)
{
    const unsigned jobs =
        opts.jobs != 0 ? opts.jobs
                       : std::max(1u, std::thread::hardware_concurrency());
    const size_t shards = opts.shards != 0 ? opts.shards : 4 * jobs;
    std::vector<ReplayStream> states(streams.size());
    std::vector<std::vector<size_t>> members(shards);
    for (size_t i = 0; i < streams.size(); ++i) {
        states[i].desc = &streams[i];
        members[static_cast<size_t>(streams[i].id % shards)].push_back(i);
    }

    const size_t cap = opts.poolPerShard;
    Chunk chunk(std::min<size_t>(kChunk, opts.batch));
    uint64_t parked_bytes = 0;

    for (const auto& shard : members) {
        std::deque<size_t> live; // admission order, for FIFO eviction
        auto erase_live = [&live](size_t idx) {
            const auto it = std::find(live.begin(), live.end(), idx);
            if (it != live.end())
                live.erase(it);
        };
        auto finish = [&](ReplayStream& st, bool ok) {
            st.result.ok = ok && st.result.stats.totalPredictions() ==
                                     st.desc->branches;
            if (ok)
                st.result.allocations = st.predictor->allocations();
            st.predictor.reset();
            st.trace.reset();
            parked_bytes -= st.parked.size();
            st.parked.clear();
            st.done = true;
        };

        size_t remaining = shard.size();
        while (remaining > 0) {
            for (const size_t idx : shard) {
                ReplayStream& st = states[idx];
                if (st.done)
                    continue;
                const uint64_t id = st.desc->id;
                obs::SpanScope turn("serve.turn", id);

                if (!st.predictor) {
                    ++stats.admissions;
                    st.predictor = make(opts.spec, id);
                    bool admitted = st.predictor != nullptr;
                    if (admitted && !st.parked.empty()) {
                        admitted = unpark(*st.predictor, st.parked, id);
                        parked_bytes -= st.parked.size();
                        st.parked.clear();
                        st.parked.shrink_to_fit();
                    } else if (admitted && !st.started) {
                        st.started = true;
                        st.trace = open(st.desc->trace, st.desc->branches,
                                        st.desc->seedSalt, id);
                        admitted = st.trace != nullptr;
                    }
                    if (!admitted) {
                        finish(st, false);
                        --remaining;
                        continue;
                    }
                    live.push_back(idx);
                    while (cap != 0 && live.size() > cap) {
                        ReplayStream& vs = states[live.front()];
                        live.pop_front();
                        vs.parked = park(*vs.predictor, stats, vs.desc->id);
                        vs.predictor.reset();
                        if (vs.parked.empty()) {
                            finish(vs, false);
                            --remaining;
                            continue;
                        }
                        parked_bytes += vs.parked.size();
                        stats.parkedPeakBytes =
                            std::max(stats.parkedPeakBytes, parked_bytes);
                    }
                }

                const bool batched = st.predictor->hasBatchedPredict();
                uint64_t n = 0;
                while (n < opts.batch) {
                    const size_t limit = std::min<uint64_t>(
                        chunk.preds.size(), opts.batch - n);
                    const size_t filled =
                        step(*st.trace, *st.predictor, batched, limit,
                             chunk, st.result, stats, id);
                    n += filled;
                    if (filled < limit)
                        break;
                }
                if (st.trace->lastError() != nullptr) {
                    erase_live(idx);
                    finish(st, false);
                    --remaining;
                } else if (n < opts.batch) {
                    erase_live(idx);
                    finish(st, true);
                    --remaining;
                }
            }
        }
    }

    std::vector<UnitResult> out;
    out.reserve(states.size());
    for (auto& st : states)
        out.push_back(std::move(st.result));
    return out;
}

UnitResult
oracle(const UnitRecipe& recipe, uint64_t id, ReplayStats& stats)
{
    UnitResult u;
    auto source = open(recipe.trace, recipe.branches, recipe.salt, id);
    auto predictor = make(recipe.spec, id);
    if (!source || !predictor) {
        u.ok = false;
        return u;
    }
    Chunk chunk(kChunk);
    const uint64_t mid = recipe.branches / 2;
    uint64_t consumed = 0;
    while (consumed < mid) {
        const size_t limit = std::min<uint64_t>(kChunk, mid - consumed);
        const size_t n =
            step(*source, *predictor, false, limit, chunk, u, stats, id);
        consumed += n;
        if (n < limit)
            break;
    }

    const std::vector<uint8_t> blob = park(*predictor, stats, id);
    predictor = make(recipe.spec, id);
    if (blob.empty() || !predictor || !unpark(*predictor, blob, id)) {
        u.ok = false;
        return u;
    }
    while (step(*source, *predictor, false, kChunk, chunk, u, stats, id) >
           0) {
    }
    u.allocations = predictor->allocations();
    u.ok = source->lastError() == nullptr &&
           u.stats.totalPredictions() == recipe.branches;
    return u;
}

} // namespace perfbench
