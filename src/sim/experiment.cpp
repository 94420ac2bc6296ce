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
driveBranches(TraceSource& trace, GradedPredictor& predictor,
              uint64_t max_branches, DriveChunk& chunk, ClassStats& stats,
              BinaryConfidenceMetrics& confusion,
              const ObserverList& observers)
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
        predictor.predictMany(
            std::span<const uint64_t>(chunk.pcs.data(), n),
            std::span<const uint8_t>(chunk.taken.data(), n),
            std::span<Prediction>(chunk.preds.data(), n));
        for (size_t k = 0; k < n; ++k) {
            const Prediction& p = chunk.preds[k];
            const bool mispredicted = p.taken != chunk.records[k].taken;
            stats.record(p.cls, mispredicted,
                         uint64_t{chunk.records[k].instructionsBefore} + 1);
            confusion.record(p.confidence == ConfidenceLevel::High,
                             !mispredicted);
        }
        if (!observers.empty()) {
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
                for (const auto& observer : observers)
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
    RunResult result;
    result.traceName = trace.name();
    result.configName = predictor.name();

    // A fresh observer pipeline per run (empty for plain runs).
    const ObserverList observers = buildObservers(analysis);
    DriveChunk chunk;
    driveBranches(trace, predictor, std::numeric_limits<uint64_t>::max(),
                  chunk, result.stats, result.confusion, observers);
    for (const auto& observer : observers)
        observer->finish(result.analysis);

    result.finalLog2Prob = predictor.satLog2Prob();
    result.allocations = predictor.allocations();
    result.storageBits = predictor.storageBits();
    return result;
}

} // namespace tagecon
