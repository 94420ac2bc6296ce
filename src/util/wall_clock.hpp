/**
 * @file
 * The repo's single wall-clock seam.
 *
 * Every deterministic output in this codebase (sweep grids, serve
 * CSVs, report tables, digests) must be a pure function of its inputs
 * — reading a clock anywhere near those paths is how nondeterminism
 * sneaks in. So clock reads are funneled through this one seam: the
 * only translation unit allowed to touch a std::chrono clock is
 * util/wall_clock.cpp (the `no-wall-clock` tagecon_lint rule enforces
 * it, and this file is the rule's one whitelisted site). Timing
 * consumers (ServeResult::wallSeconds, obs timing histograms, bench
 * throughput numbers) take readings here and keep them out of
 * byte-diffed output by construction.
 */

#ifndef TAGECON_UTIL_WALL_CLOCK_HPP
#define TAGECON_UTIL_WALL_CLOCK_HPP

#include <cstdint>

namespace tagecon {
namespace wallclock {

/**
 * Monotonic nanoseconds since an arbitrary process-local epoch.
 * Readings are comparable within one process only; never serialize
 * them into deterministic output.
 */
uint64_t monotonicNanos();

/** Seconds elapsed from @p start_ns to @p end_ns (both readings). */
double secondsBetween(uint64_t start_ns, uint64_t end_ns);

/**
 * Block the calling thread for at least @p ns nanoseconds. Sleeping is
 * as timing-dependent as reading the clock, so it lives behind the
 * same seam (the `no-raw-timing` lint rule bans direct
 * std::this_thread::sleep_for elsewhere).
 */
void sleepNanos(uint64_t ns);

} // namespace wallclock
} // namespace tagecon

#endif // TAGECON_UTIL_WALL_CLOCK_HPP
