#include "sim/experiment.hpp"

#include <algorithm>
#include <limits>
#include <span>

namespace tagecon {

namespace {

/** predictMany() chunk size; a serve turn's batch caps it further. */
constexpr size_t kChunk = 512;

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
        for (const DriveSink& sink : sinks) {
            sink.predictor->predictMany(
                std::span<const uint64_t>(chunk.pcs.data(), n),
                std::span<const uint8_t>(chunk.taken.data(), n),
                std::span<Prediction>(chunk.preds.data(), n));
            for (size_t k = 0; k < n; ++k) {
                const Prediction& p = chunk.preds[k];
                const bool mispredicted = p.taken != chunk.records[k].taken;
                sink.stats->record(
                    p.cls, mispredicted,
                    uint64_t{chunk.records[k].instructionsBefore} + 1);
                sink.confusion->record(
                    p.confidence == ConfidenceLevel::High, !mispredicted);
            }
            if (sink.observers.empty())
                continue;
            for (size_t k = 0; k < n; ++k) {
                const Prediction& p = chunk.preds[k];
                const BranchRecord& rec = chunk.records[k];
                const ObservedPrediction observed{
                    rec.pc,
                    p,
                    rec.taken,
                    p.taken != rec.taken,
                    uint64_t{rec.instructionsBefore} + 1,
                    consumed + k};
                for (const auto& observer : sink.observers)
                    observer->onPrediction(observed);
            }
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
    std::vector<DriveSink> sinks(n);
    for (size_t k = 0; k < n; ++k) {
        results[k].traceName = trace.name();
        results[k].configName = predictors[k]->name();
        observers[k] = buildObservers(analysis);
        sinks[k] = DriveSink{predictors[k], &results[k].stats,
                             &results[k].confusion, observers[k]};
    }
    DriveChunk chunk;
    driveBranches(trace, sinks, std::numeric_limits<uint64_t>::max(),
                  chunk);
    for (size_t k = 0; k < n; ++k) {
        RunResult& result = results[k];
        for (const auto& observer : observers[k])
            observer->finish(result.analysis);
        result.finalLog2Prob = predictors[k]->satLog2Prob();
        result.allocations = predictors[k]->allocations();
        result.storageBits = predictors[k]->storageBits();
    }
    return results;
}

} // namespace tagecon
