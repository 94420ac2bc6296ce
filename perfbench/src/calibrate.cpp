#include "calibrate.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "util/wall_clock.hpp"

namespace perfbench {

namespace {

constexpr size_t kTables = 4;
constexpr size_t kEntries = 4096; // 4 x 4096 x 3 B = 48 KiB, like tage64k
constexpr int kIterations = 100000;
constexpr int kPasses = 5;

struct Tables {
    uint16_t tag[kTables][kEntries];
    int8_t ctr[kTables][kEntries];
};

/**
 * One pass from cleared tables: predict a synthetic branch stream with
 * the longest-history tag hit, train its counter, and allocate on a
 * miss. Returns the mispredictions, so the work cannot be elided.
 */
uint64_t
pass(Tables& t)
{
    std::memset(&t, 0, sizeof t);
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    uint64_t history = 0;
    uint64_t misses = 0;
    for (uint32_t i = 0; i < kIterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Three in four outcomes follow the history; the rest are noise.
        const bool taken = ((x >> 5) & 3) != 0 ? (history & 5) != 0
                                                : (x & 1) != 0;
        bool hit = false;
        for (size_t k = kTables; k-- > 0;) {
            const size_t idx = ((history >> (k * 3)) ^
                                (history >> (k * 7 + 1)) ^ (i * (k + 1))) &
                               (kEntries - 1);
            const auto tag = static_cast<uint16_t>(history >> (k + 2));
            if (t.tag[k][idx] != tag)
                continue;
            int8_t& c = t.ctr[k][idx];
            if ((c >= 0) == taken) {
                c = static_cast<int8_t>(std::min(c + 1, 3));
            } else {
                c = static_cast<int8_t>(std::max(c - 1, -4));
                ++misses;
            }
            hit = true;
            break;
        }
        if (!hit) {
            const size_t idx = (history ^ i) & (kEntries - 1);
            t.tag[i & 3][idx] = static_cast<uint16_t>(history >> 2);
            t.ctr[i & 3][idx] = taken ? 0 : -1;
        }
        history = (history << 1) | (taken ? 1 : 0);
    }
    return misses;
}

} // namespace

Calibration
calibrate()
{
    static Tables tables;
    Calibration out;
    out.checksum = pass(tables); // warm-up
    std::array<double, kPasses> seconds{};
    for (double& s : seconds) {
        const uint64_t t0 = tagecon::wallclock::monotonicNanos();
        out.checksum = out.checksum * 31 + pass(tables);
        s = tagecon::wallclock::secondsBetween(
            t0, tagecon::wallclock::monotonicNanos());
    }
    std::nth_element(seconds.begin(), seconds.begin() + kPasses / 2,
                     seconds.end());
    out.seconds = seconds[kPasses / 2];
    return out;
}

double
slowdown(double before_s, double after_s)
{
    return (before_s + after_s) / 2.0 / kReferenceSeconds;
}

} // namespace perfbench
