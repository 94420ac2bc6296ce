/**
 * @file
 * The host-speed calibration behind the benchmark's timings.
 *
 * On a shared host the same code runs up to ~1.7x slower for seconds to
 * minutes at a time, while a plain ALU loop keeps its speed. A small,
 * fixed TAGE-like kernel (tagged tables, hashed history, saturating
 * counters, data-dependent branches) slows down with the predictor code
 * in those periods, so the timed phase runs it between rounds and
 * reports every timing in reference seconds: wall seconds divided by
 * the host's slowdown against kReferenceSeconds. The kernel is frozen
 * here and calls nothing in the library, so a change to the program
 * cannot move it.
 */

#ifndef PERFBENCH_CALIBRATE_HPP
#define PERFBENCH_CALIBRATE_HPP

#include <cstdint>

namespace perfbench {

/**
 * Seconds of one kernel pass on the reference host. A reference second
 * is a wall second on a host where a pass takes this long. An Intel
 * Xeon VM (4 vCPUs, gcc 12.2 Release) took 0.9 ms in its fast periods
 * and 1.5 ms in its slow ones.
 */
constexpr double kReferenceSeconds = 1.0e-3;

/** One calibration: the median pass time and the kernel's checksum. */
struct Calibration {
    double seconds = 0.0;
    uint64_t checksum = 0;
};

/**
 * Run the kernel once to warm its tables, then kPasses more times, and
 * return the median of the timed passes. Every pass does the same work,
 * so the checksum is the same on every call.
 */
Calibration calibrate();

/**
 * How much slower the host runs than the reference: the mean of the
 * calibrations before and after a round, over kReferenceSeconds.
 */
double slowdown(double before_s, double after_s);

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_HPP
