/**
 * @file
 * SMT fetch arbitration driven by storage-free confidence — the second
 * usage family the paper cites (Sec. 2.1, after Luo et al.): in a
 * 2-thread SMT front end, prefer fetching from the thread whose
 * in-flight branches are more trustworthy, so fewer shared-queue slots
 * are wasted on wrong-path work.
 *
 * Model: two threads run different traces; each cycle the arbiter
 * picks one thread and fetches one branch (plus its preceding
 * instructions) from it. Branches resolve a fixed number of cycles
 * later; instructions fetched while an unresolved mispredicted branch
 * of the same thread is in flight are wrong-path waste.
 *
 * Policies:
 *  - round-robin (confidence-blind baseline),
 *  - confidence-count: pick the thread with the fewer in-flight
 *    low+medium-confidence predictions (ties: round-robin).
 *
 * The per-thread predictor is any registry spec (--predictor).
 *
 * Flags: --traceA=NAME --traceB=NAME --predictor=SPEC --branches=N
 *        --delay=N
 */

#include <array>
#include <deque>
#include <iostream>
#include <memory>

#include "sim/experiment.hpp"
#include "sim/registry.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table_printer.hpp"

using namespace tagecon;

namespace {

struct InFlight {
    ConfidenceLevel level;
    bool mispredicted;
    int age = 0;
};

/** One SMT hardware thread: its own trace and graded predictor. */
struct Thread {
    std::unique_ptr<SyntheticTrace> trace;
    std::unique_ptr<GradedPredictor> predictor;
    std::deque<InFlight> window;
    int riskyInFlight = 0; // low + medium confidence, unresolved
    uint64_t rightPath = 0;
    uint64_t wrongPath = 0;
    bool exhausted = false;

    void
    tick(int resolve_delay)
    {
        for (auto& b : window)
            ++b.age;
        while (!window.empty() && window.front().age >= resolve_delay) {
            if (window.front().level != ConfidenceLevel::High)
                --riskyInFlight;
            window.pop_front();
        }
    }

    void
    fetchOne()
    {
        BranchRecord rec;
        if (!trace->next(rec)) {
            exhausted = true;
            return;
        }
        const Prediction p = predictor->predict(rec.pc);
        const ConfidenceLevel level = p.confidence;
        const bool mispredicted = p.taken != rec.taken;

        bool on_wrong_path = false;
        for (const auto& b : window)
            on_wrong_path = on_wrong_path || b.mispredicted;
        const uint64_t instr = uint64_t{rec.instructionsBefore} + 1;
        if (on_wrong_path)
            wrongPath += instr;
        else
            rightPath += instr;

        window.push_back(InFlight{level, mispredicted, 0});
        if (level != ConfidenceLevel::High)
            ++riskyInFlight;

        predictor->update(rec.pc, p, rec.taken);
    }
};

struct SmtResult {
    uint64_t rightPath = 0;
    uint64_t wrongPath = 0;
};

SmtResult
simulate(const std::string& trace_a, const std::string& trace_b,
         const std::string& spec, uint64_t branches, int resolve_delay,
         bool confidence_aware)
{
    std::array<Thread, 2> threads;
    // Generous per-thread streams: the measurement window is a fixed
    // number of fetch cycles, so neither trace may run dry (what
    // matters for an SMT fetch policy is how much useful work fits in
    // a fixed amount of front-end bandwidth).
    threads[0].trace = std::make_unique<SyntheticTrace>(
        makeTrace(trace_a, 2 * branches));
    threads[1].trace = std::make_unique<SyntheticTrace>(
        makeTrace(trace_b, 2 * branches));
    for (auto& th : threads)
        th.predictor = makePredictor(spec);

    int rr = 0;
    for (uint64_t cycle = 0; cycle < branches; ++cycle) {
        threads[0].tick(resolve_delay);
        threads[1].tick(resolve_delay);

        int pick;
        if (threads[0].exhausted) {
            pick = 1;
        } else if (threads[1].exhausted) {
            pick = 0;
        } else if (confidence_aware &&
                   threads[0].riskyInFlight != threads[1].riskyInFlight) {
            pick = threads[0].riskyInFlight < threads[1].riskyInFlight
                       ? 0
                       : 1;
        } else {
            pick = rr;
            rr ^= 1;
        }
        threads[static_cast<size_t>(pick)].fetchOne();
    }

    SmtResult r;
    for (const auto& th : threads) {
        r.rightPath += th.rightPath;
        r.wrongPath += th.wrongPath;
    }
    return r;
}

} // namespace

int
main(int argc, char** argv)
{
    CliArgs args(argc, argv);
    args.rejectUnknownFlags(
        {"traceA", "traceB", "predictor", "branches", "delay"});
    const std::string trace_a = args.getString("traceA", "252.eon");
    const std::string trace_b = args.getString("traceB", "300.twolf");
    const std::string spec =
        args.getString("predictor", "tage64k+prob7+sfc");
    const uint64_t branches = args.getUint("branches", 400000);
    const int delay = static_cast<int>(args.getInt("delay", 24));

    std::cout << "2-thread SMT fetch: " << trace_a << " + " << trace_b
              << ", predictor " << spec << "\n\n";

    std::cout << "fixed front-end window: " << branches
              << " fetch cycles\n\n";
    for (const std::string& trace : {trace_a, trace_b}) {
        if (!isKnownProfile(trace))
            fatal("unknown trace profile '" + trace + "'");
    }
    std::string error;
    if (!tryMakePredictor(spec, &error))
        fatal("makePredictor: " + error);

    TextTable t;
    t.addColumn("fetch policy", TextTable::Align::Left);
    t.addColumn("right-path instr (throughput)");
    t.addColumn("wrong-path instr");
    t.addColumn("waste %");

    for (const bool aware : {false, true}) {
        const SmtResult r =
            simulate(trace_a, trace_b, spec, branches, delay, aware);
        t.addRow({aware ? "confidence-count (this paper)"
                        : "round-robin",
                  std::to_string(r.rightPath),
                  std::to_string(r.wrongPath),
                  TextTable::num(100.0 * static_cast<double>(r.wrongPath) /
                                     static_cast<double>(r.rightPath),
                                 1)});
    }
    t.render(std::cout);

    std::cout << "\nin a fixed fetch-bandwidth window, prioritizing the "
                 "thread with fewer risky in-flight branches converts "
                 "wrong-path slots into useful throughput.\n";
    return 0;
}
