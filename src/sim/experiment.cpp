#include "sim/experiment.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "obs/metrics.hpp"
#include "tage/tage_predictor.hpp"
#include "util/logging.hpp"

namespace tagecon {

namespace {

/** predictMany() chunk size; a serve turn's batch caps it further. */
constexpr size_t kChunk = 512;

/**
 * Step elements [@p at, @p at + @p len) of @p chunk through @p sink:
 * its predictor, its stats and its observers, which number elements
 * from @p index0.
 */
void
stepSink(const DriveSink& sink, DriveChunk& chunk, size_t at, size_t len,
         uint64_t index0)
{
    sink.predictor->predictMany(
        std::span<const uint64_t>(chunk.pcs.data() + at, len),
        std::span<const uint8_t>(chunk.taken.data() + at, len),
        std::span<Prediction>(chunk.preds.data() + at, len));
    for (size_t k = at; k < at + len; ++k) {
        const Prediction& p = chunk.preds[k];
        sink.stats->record(p.cls, p.taken != chunk.records[k].taken,
                           uint64_t{chunk.records[k].instructionsBefore} +
                               1);
    }
    if (sink.observers.empty())
        return;
    for (size_t k = at; k < at + len; ++k) {
        const Prediction& p = chunk.preds[k];
        const BranchRecord& rec = chunk.records[k];
        const ObservedPrediction observed{
            rec.pc,
            p,
            rec.taken,
            p.taken != rec.taken,
            uint64_t{rec.instructionsBefore} + 1,
            index0 + k};
        for (const auto& observer : sink.observers)
            observer->onPrediction(observed);
    }
}

} // namespace

DriveChunk::DriveChunk()
    : records(kChunk), pcs(kChunk), taken(kChunk), preds(kChunk)
{
}

uint64_t
driveBranches(TraceSource& trace, std::span<const DriveSink> sinks,
              uint64_t max_branches, DriveChunk& chunk)
{
    uint64_t consumed = 0;
    while (consumed < max_branches) {
        const auto want = static_cast<size_t>(
            std::min<uint64_t>(kChunk, max_branches - consumed));
        const size_t n = trace.fill(
            std::span<BranchRecord>(chunk.records.data(), want));
        if (n == 0)
            break;
        for (size_t k = 0; k < n; ++k) {
            chunk.pcs[k] = chunk.records[k].pc;
            chunk.taken[k] = chunk.records[k].taken ? 1 : 0;
        }
        for (size_t s = 0; s < sinks.size();) {
            const size_t group = 1 + sinks[s].followers;
            TAGECON_ASSERT(group <= sinks.size() - s,
                           "a lookup group runs past the sinks");
            // A lookup group steps block by block, the leader first, so
            // each follower resolves the block the leader just indexed.
            const size_t step = group == 1 ? n : TagePredictor::kBatchBlock;
            for (size_t at = 0; at < n; at += step) {
                const size_t len = std::min(step, n - at);
                for (size_t g = s; g < s + group; ++g)
                    stepSink(sinks[g], chunk, at, len, consumed);
            }
            s += group;
        }
        consumed += n;
        if (n < want)
            break; // the trace ended inside this chunk
    }
    return consumed;
}

RunResult
runTrace(TraceSource& trace, GradedPredictor& predictor,
         const AnalysisConfig& analysis)
{
    GradedPredictor* const one = &predictor;
    return std::move(runTrace(trace, {&one, 1}, analysis).front());
}

std::vector<RunResult>
runTrace(TraceSource& trace, std::span<GradedPredictor* const> predictors,
         const AnalysisConfig& analysis)
{
    const size_t n = predictors.size();
    std::vector<RunResult> results(n);
    // A fresh observer pipeline per run (empty for plain runs).
    std::vector<ObserverList> observers(n);
    for (size_t k = 0; k < n; ++k) {
        results[k].traceName = trace.name();
        results[k].configName = predictors[k]->name();
        observers[k] = buildObservers(analysis);
    }

    // Lookup groups: each TAGE stack leads the later stacks of its
    // lookup geometry, whose sinks go right after its own.
    std::vector<DriveSink> sinks;
    std::vector<TagePredictor*> followers;
    std::vector<bool> grouped(n, false);
    sinks.reserve(n);
    for (size_t k = 0; k < n; ++k) {
        if (grouped[k])
            continue;
        const size_t lead = sinks.size();
        sinks.push_back(
            DriveSink{predictors[k], &results[k].stats, observers[k]});
        TagePredictor* const leader = predictors[k]->tagePredictor();
        if (leader == nullptr)
            continue;
        for (size_t j = k + 1; j < n; ++j) {
            TagePredictor* const tage =
                grouped[j] ? nullptr : predictors[j]->tagePredictor();
            if (tage == nullptr || !tage->canFollow(*leader))
                continue;
            tage->follow(*leader);
            followers.push_back(tage);
            grouped[j] = true;
            sinks.push_back(
                DriveSink{predictors[j], &results[j].stats, observers[j]});
            ++sinks[lead].followers;
        }
    }
    obs::counter("sweep.cells.following").add(followers.size());

    DriveChunk chunk;
    driveBranches(trace, sinks, std::numeric_limits<uint64_t>::max(),
                  chunk);
    for (TagePredictor* const tage : followers)
        tage->stopFollowing();

    for (size_t k = 0; k < n; ++k) {
        RunResult& result = results[k];
        for (const auto& observer : observers[k])
            observer->finish(result.analysis);
        result.confusion =
            BinaryConfidenceMetrics::fromClassStats(result.stats);
        result.finalLog2Prob = predictors[k]->satLog2Prob();
        result.allocations = predictors[k]->allocations();
        result.storageBits = predictors[k]->storageBits();
    }
    return results;
}

} // namespace tagecon
