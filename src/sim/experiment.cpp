#include "sim/experiment.hpp"

#include <limits>
#include <span>

namespace tagecon {

namespace {

/** predictMany() chunk size; a serve turn's batch caps it further. */
constexpr size_t kChunk = 512;

} // namespace

DriveChunk::DriveChunk() : preds(kChunk)
{
    pcs.reserve(kChunk);
    taken.reserve(kChunk);
    insns.reserve(kChunk);
}

uint64_t
driveBranches(TraceSource& trace, GradedPredictor& predictor,
              uint64_t max_branches, DriveChunk& chunk, ClassStats& stats,
              BinaryConfidenceMetrics& confusion,
              const ObserverList& observers)
{
    BranchRecord rec;
    uint64_t consumed = 0;
    bool more = true;
    while (more && consumed < max_branches) {
        chunk.pcs.clear();
        chunk.taken.clear();
        chunk.insns.clear();
        while (chunk.pcs.size() < kChunk &&
               consumed + chunk.pcs.size() < max_branches &&
               (more = trace.next(rec))) {
            chunk.pcs.push_back(rec.pc);
            chunk.taken.push_back(rec.taken ? 1 : 0);
            chunk.insns.push_back(uint64_t{rec.instructionsBefore} + 1);
        }
        const size_t n = chunk.pcs.size();
        if (n == 0)
            break;
        predictor.predictMany(
            std::span<const uint64_t>(chunk.pcs.data(), n),
            std::span<const uint8_t>(chunk.taken.data(), n),
            std::span<Prediction>(chunk.preds.data(), n));
        for (size_t k = 0; k < n; ++k) {
            const Prediction& p = chunk.preds[k];
            const bool mispredicted = p.taken != (chunk.taken[k] != 0);
            stats.record(p.cls, mispredicted, chunk.insns[k]);
            confusion.record(p.confidence == ConfidenceLevel::High,
                             !mispredicted);
        }
        if (!observers.empty()) {
            for (size_t k = 0; k < n; ++k) {
                const Prediction& p = chunk.preds[k];
                const bool taken = chunk.taken[k] != 0;
                const ObservedPrediction observed{
                    chunk.pcs[k],   p, taken, p.taken != taken,
                    chunk.insns[k], consumed + k};
                for (const auto& observer : observers)
                    observer->onPrediction(observed);
            }
        }
        consumed += n;
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
