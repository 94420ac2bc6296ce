/**
 * @file
 * The 40 named synthetic workload profiles standing in for the two
 * championship trace sets the paper evaluates on (Sec. 4):
 *
 *  - CBP-1: FP-1..5, INT-1..5, MM-1..5, SERV-1..5
 *  - CBP-2: 164.gzip .. 300.twolf (SPEC INT / SPEC JVM98 mix)
 *
 * The real traces are not redistributable; each profile is tuned to
 * the qualitative behaviour the paper reports for its namesake (see
 * DESIGN.md): FP traces are loop-dominated and highly predictable,
 * SERV traces have very large branch footprints that thrash the small
 * predictor, MM/twolf/gzip carry a sizable fraction of intrinsically
 * unpredictable branches, and so on.
 */

#ifndef TAGECON_TRACE_PROFILES_HPP
#define TAGECON_TRACE_PROFILES_HPP

#include <string>
#include <vector>

#include "trace/workload.hpp"

namespace tagecon {

/** The two benchmark sets of the paper. */
enum class BenchmarkSet {
    Cbp1, ///< CBP-1 (2004): FP / INT / MM / SERV
    Cbp2, ///< CBP-2 (2006): SPEC INT + JVM98
};

/** Human-readable name of a benchmark set ("CBP1" / "CBP2"). */
std::string benchmarkSetName(BenchmarkSet set);

/** Trace names of a benchmark set, in the paper's figure order. */
const std::vector<std::string>& traceNames(BenchmarkSet set);

/** All 40 trace names, CBP-1 first. */
std::vector<std::string> allTraceNames();

/** True when @p name is one of allTraceNames(). */
bool isKnownProfile(const std::string& name);

/**
 * Generation parameters of a named trace; panics on a name
 * isKnownProfile() rejects.
 */
ProfileParams profileByName(const std::string& name);

/**
 * Construct the synthetic trace for @p name producing @p num_branches
 * branches. @p seed_salt perturbs the profile's seed, letting tests
 * draw independent trace instances. Panics on an unknown name.
 */
SyntheticTrace makeTrace(const std::string& name, uint64_t num_branches,
                         uint64_t seed_salt = 0);

} // namespace tagecon

#endif // TAGECON_TRACE_PROFILES_HPP
