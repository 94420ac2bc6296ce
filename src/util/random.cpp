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

Lfsr16::Lfsr16(uint16_t seed)
    : state_(seed == 0 ? 0xACE1u : seed)
{
}

uint16_t
Lfsr16::next()
{
    // Taps at bits 16, 15, 13, 4 (1-based), period 2^16 - 1.
    const uint16_t bit = static_cast<uint16_t>(
        ((state_ >> 0) ^ (state_ >> 2) ^ (state_ >> 3) ^ (state_ >> 5)) & 1u);
    state_ = static_cast<uint16_t>((state_ >> 1) | (bit << 15));
    return state_;
}

bool
Lfsr16::oneIn(unsigned log2_denominator)
{
    if (log2_denominator == 0)
        return true;
    const uint16_t draw = next();
    const uint16_t mask = static_cast<uint16_t>(
        (1u << (log2_denominator > 15 ? 15 : log2_denominator)) - 1u);
    return (draw & mask) == 0;
}

} // namespace tagecon
