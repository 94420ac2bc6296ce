#include "util/wall_clock.hpp"

#include <chrono>
#include <thread>

namespace tagecon {
namespace wallclock {

// The one whitelisted clock read of the repo (tagecon_lint:
// no-wall-clock). Everything that needs elapsed time goes through
// monotonicNanos() so there is exactly one place nondeterministic
// readings can originate.
uint64_t
monotonicNanos()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
secondsBetween(uint64_t start_ns, uint64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

void
sleepNanos(uint64_t ns)
{
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(static_cast<int64_t>(ns)));
}

} // namespace wallclock
} // namespace tagecon
