/**
 * @file
 * Declarative selection of run-analysis observers, mirroring the
 * predictor and trace registries: a comma-separated list of observer
 * specs — "intervals:len=100000,histogram,perbranch:top=32,
 * warmup:len=10000,mkp=20" — parses into a plain-data AnalysisConfig,
 * and buildObservers() constructs a fresh pipeline from it per run.
 *
 * Because the config is pure data (no live observer state), a
 * SweepPlan can carry it into every cell and each worker builds its
 * own independent observers — parallel sweeps with analysis attached
 * stay bit-identical to serial ones.
 *
 * The selectable observers are one constant table in
 * analysis_config.cpp; a new observer is a new row there plus its
 * fields below. A run that needs an observer outside the table hands
 * it to driveBranches() (sim/experiment.hpp) in an ObserverList.
 */

#ifndef TAGECON_ANALYSIS_ANALYSIS_CONFIG_HPP
#define TAGECON_ANALYSIS_ANALYSIS_CONFIG_HPP

#include <string>
#include <vector>

#include "analysis/run_observer.hpp"

namespace tagecon {

/** Which observers a run attaches, with their parameters. */
struct AnalysisConfig {
    /** IntervalObserver ("intervals", param len). */
    bool intervals = false;
    uint64_t intervalLength = 100000;

    /** ConfidenceHistogramObserver ("histogram"). */
    bool histogram = false;

    /** BurstObserver ("burst", param max). */
    bool burst = false;
    uint64_t burstMaxDistance = 16;

    /** PerBranchObserver ("perbranch", param top). */
    bool perBranch = false;
    uint64_t perBranchTopN = 16;

    /** WarmupObserver ("warmup", params len and mkp). */
    bool warmup = false;
    uint64_t warmupIntervalLength = 10000;
    double warmupThresholdMkp = 20.0;

    /** True when any observer is selected. */
    bool
    enabled() const
    {
        return intervals || histogram || burst || perBranch || warmup;
    }
};

/**
 * Parse observer spec items (each "name[:key=value,...]") into
 * @p out. Returns false on an unknown or repeated observer, malformed
 * parameter list, unknown key or out-of-range value, with the reason
 * in @p error. Items typically come from a comma-split --analysis flag
 * run through regroupSpecList() so parameterized tokens survive.
 */
bool parseAnalysisSpecs(const std::vector<std::string>& items,
                        AnalysisConfig& out, std::string& error);

/** Construct a fresh observer pipeline described by @p config. */
ObserverList buildObservers(const AnalysisConfig& config);

/** All selectable observer names, sorted. */
std::vector<std::string> registeredRunObservers();

} // namespace tagecon

#endif // TAGECON_ANALYSIS_ANALYSIS_CONFIG_HPP
