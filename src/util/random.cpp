#include "util/random.hpp"

namespace tagecon {

namespace {

/** splitmix64 step, used to expand the user seed into generator state. */
uint64_t
splitmix64(uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

XorShift128Plus::XorShift128Plus(uint64_t seed)
{
    uint64_t sm = seed;
    s0_ = splitmix64(sm);
    s1_ = splitmix64(sm);
    if (s0_ == 0 && s1_ == 0)
        s1_ = 1;
}

} // namespace tagecon
