/**
 * @file
 * Fetch gating driven by storage-free confidence — the usage the paper
 * motivates first (Sec. 2.1, after Manne et al.): when the front end
 * has fetched past too many unresolved low-confidence branches, it is
 * probably on the wrong path, so stop fetching and save the energy.
 *
 * The model is a branch-granularity abstraction of an out-of-order
 * front end:
 *  - branches resolve @c resolveDelay branches after they are fetched;
 *  - every instruction fetched after a mispredicted, not-yet-resolved
 *    branch is wrong-path work (wasted energy);
 *  - a gating policy may stall fetch while "too many" unresolved
 *    low/medium-confidence predictions are in flight; stalled slots
 *    are the performance cost of gating.
 *
 * Three policies are compared on the same trace and predictor:
 *  - no gating (baseline),
 *  - gate on low-confidence predictions only,
 *  - gate on low-confidence, throttle on medium-confidence (the
 *    two-threshold structure that the 3-class split of Sec. 6.1
 *    enables, as suggested by Akkary et al. / Malik et al.).
 *
 * The predictor is any registry spec (--predictor): the storage-free
 * TAGE scheme by default, but gating works with any graded predictor
 * ("gshare+jrs", "perceptron+self", ...).
 *
 * Flags: --trace=NAME --predictor=SPEC (default tage64k+prob7+sfc)
 *        --branches=N --delay=N (resolve delay, default 24 branches)
 */

#include <deque>
#include <iostream>

#include "sim/experiment.hpp"
#include "sim/registry.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table_printer.hpp"

using namespace tagecon;

namespace {

/** Gating policy parameters. */
struct Policy {
    std::string name;
    /** Stall fetch when this many unresolved low-conf branches. */
    int lowLimit = 1 << 30;
    /** Stall fetch when this many unresolved medium-conf branches. */
    int mediumLimit = 1 << 30;
};

/** Outcome of simulating one policy. */
struct GatingResult {
    uint64_t rightPathInstructions = 0;
    uint64_t wrongPathInstructions = 0;
    uint64_t stallSlots = 0;
    uint64_t mispredictions = 0;
};

/** One in-flight branch. */
struct InFlight {
    ConfidenceLevel level;
    bool mispredicted;
    int age = 0;
};

GatingResult
simulate(const std::string& trace_name, const std::string& spec,
         uint64_t branches, int resolve_delay, const Policy& policy)
{
    SyntheticTrace trace = makeTrace(trace_name, branches);
    auto predictor = makePredictor(spec);
    GatingResult result;

    std::deque<InFlight> window;
    int low_inflight = 0;
    int medium_inflight = 0;

    // Cycle-based front end: each cycle either fetches one branch
    // bundle or stalls on the gate. In-flight branches resolve
    // resolve_delay *cycles* after fetch, so a closed gate reopens by
    // itself as the risky branches resolve.
    bool trace_done = false;
    while (!trace_done || !window.empty()) {
        for (auto& b : window)
            ++b.age;
        while (!window.empty() && window.front().age >= resolve_delay) {
            const InFlight& done = window.front();
            if (done.level == ConfidenceLevel::Low)
                --low_inflight;
            if (done.level == ConfidenceLevel::Medium)
                --medium_inflight;
            window.pop_front();
        }
        if (trace_done)
            continue;

        const bool gated = low_inflight >= policy.lowLimit ||
                           medium_inflight >= policy.mediumLimit;
        if (gated) {
            ++result.stallSlots;
            continue; // fetch pauses this cycle
        }

        BranchRecord rec;
        if (!trace.next(rec)) {
            trace_done = true;
            continue;
        }

        const Prediction p = predictor->predict(rec.pc);
        const ConfidenceLevel level = p.confidence;
        const bool mispredicted = p.taken != rec.taken;

        // Every trace instruction eventually commits (right-path
        // total is policy-invariant); work fetched while an unresolved
        // older branch is mispredicted is *additionally* squashed and
        // refetched — that squashed work is the energy waste gating
        // tries to avoid.
        bool on_wrong_path = false;
        for (const auto& b : window)
            on_wrong_path = on_wrong_path || b.mispredicted;
        const uint64_t instr = uint64_t{rec.instructionsBefore} + 1;
        result.rightPathInstructions += instr;
        if (on_wrong_path)
            result.wrongPathInstructions += instr;

        if (mispredicted)
            ++result.mispredictions;

        window.push_back(InFlight{level, mispredicted, 0});
        if (level == ConfidenceLevel::Low)
            ++low_inflight;
        if (level == ConfidenceLevel::Medium)
            ++medium_inflight;

        predictor->update(rec.pc, p, rec.taken);
    }
    return result;
}

} // namespace

int
main(int argc, char** argv)
{
    CliArgs args(argc, argv);
    args.rejectUnknownFlags({"trace", "predictor", "branches", "delay"});
    const std::string trace = args.getString("trace", "300.twolf");
    const std::string spec =
        args.getString("predictor", "tage64k+prob7+sfc");
    const uint64_t branches = args.getUint("branches", 500000);
    const int delay = static_cast<int>(args.getInt("delay", 24));

    const Policy policies[] = {
        {"no gating", 1 << 30, 1 << 30},
        {"gate on 2 low-conf", 2, 1 << 30},
        {"gate on 2 low or 6 medium", 2, 6},
    };

    std::cout << "fetch gating on " << trace << ", predictor " << spec
              << ", resolve delay " << delay << " cycles\n\n";
    if (!isKnownProfile(trace))
        fatal("unknown trace profile '" + trace + "'");
    std::string error;
    if (!tryMakePredictor(spec, &error))
        fatal("makePredictor: " + error);

    TextTable t;
    t.addColumn("policy", TextTable::Align::Left);
    t.addColumn("right-path instr");
    t.addColumn("wrong-path instr");
    t.addColumn("waste %");
    t.addColumn("stall cycles");
    t.addColumn("stall % of cycles");

    for (const Policy& policy : policies) {
        const GatingResult r =
            simulate(trace, spec, branches, delay, policy);
        const double waste =
            100.0 * static_cast<double>(r.wrongPathInstructions) /
            static_cast<double>(r.rightPathInstructions);
        const double stall =
            100.0 * static_cast<double>(r.stallSlots) /
            static_cast<double>(branches + r.stallSlots);
        t.addRow({policy.name, std::to_string(r.rightPathInstructions),
                  std::to_string(r.wrongPathInstructions),
                  TextTable::num(waste, 1),
                  std::to_string(r.stallSlots),
                  TextTable::num(stall, 1)});
    }
    t.render(std::cout);

    std::cout << "\nthe confidence-gated policies trade bounded stall "
                 "time for a large cut in wrong-path (wasted) fetch "
                 "work; on predictable traces (try --trace=252.eon) "
                 "the gate almost never closes.\n";
    return 0;
}
