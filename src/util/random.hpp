/**
 * @file
 * Deterministic pseudo-random sources.
 *
 *  - XorShift128Plus: fast, seedable generator used by the synthetic
 *    workload generators and by test harnesses.
 *  - Lfsr16: a tiny 16-bit linear-feedback shift register modelling the
 *    kind of hardware RNG a real TAGE implementation would use for the
 *    probabilistic saturation automaton (Sec. 6) and for allocation
 *    tie-breaking.
 */

#ifndef TAGECON_UTIL_RANDOM_HPP
#define TAGECON_UTIL_RANDOM_HPP

#include <cstdint>

namespace tagecon {

/**
 * xorshift128+ pseudo-random generator. Deterministic for a given seed;
 * passes the statistical bar needed for workload synthesis while being a
 * couple of instructions per draw. The draws are inline: the synthetic
 * trace generator makes several per branch.
 */
class XorShift128Plus
{
  public:
    /**
     * A nextBelow() bound with its rejection limit worked out once, for
     * a hot loop that keeps drawing under the same bound. Bound 0 draws
     * nothing and yields 0, as nextBelow(0) does.
     */
    struct Bound {
        explicit Bound(uint64_t bound = 0)
            : value(bound),
              limit(bound == 0 ? 0 : ~uint64_t{0} - (~uint64_t{0} % bound))
        {
        }

        uint64_t value;
        /** Raw draws at or above this are rejected (modulo bias). */
        uint64_t limit;
    };

    /** Seed the generator; any seed (including 0) is legal. */
    explicit XorShift128Plus(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit draw. */
    uint64_t
    next()
    {
        uint64_t x = s0_;
        const uint64_t y = s1_;
        s0_ = y;
        x ^= x << 23;
        s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
        return s1_ + y;
    }

    /** Uniform draw in [0, bound); bound must be non-zero. */
    uint64_t nextBelow(uint64_t bound) { return nextBelow(Bound(bound)); }

    /**
     * nextBelow(bound.value) with the limit precomputed: the same value
     * from the same raw draws, one division fewer.
     */
    uint64_t
    nextBelow(const Bound& bound)
    {
        if (bound.value == 0)
            return 0;
        uint64_t draw;
        do {
            draw = next();
        } while (draw >= bound.limit);
        return draw % bound.value;
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        // 53 high-quality bits into the mantissa.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw: true with probability p (clamped to [0,1]). */
    bool
    nextBool(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

  private:
    uint64_t s0_;
    uint64_t s1_;
};

/**
 * 16-bit Fibonacci LFSR (taps 16,15,13,4 — maximal length). Models the
 * cheap hardware random source used by the modified 3-bit counter
 * automaton: "the transition to saturated state is only performed
 * randomly with a small probability" (Sec. 6).
 */
class Lfsr16
{
  public:
    /** Seed must be non-zero; a zero seed is replaced by 0xACE1. */
    explicit Lfsr16(uint16_t seed = 0xACE1u)
        : state_(seed == 0 ? 0xACE1u : seed)
    {
    }

    /**
     * Advance one step and return the new register value. Inline, as
     * are the draws below: TAGE's resolve loop draws through them.
     */
    uint16_t
    next()
    {
        // Taps at bits 16, 15, 13, 4 (1-based), period 2^16 - 1.
        const uint16_t bit = static_cast<uint16_t>(
            ((state_ >> 0) ^ (state_ >> 2) ^ (state_ >> 3) ^ (state_ >> 5)) &
            1u);
        state_ = static_cast<uint16_t>((state_ >> 1) | (bit << 15));
        return state_;
    }

    /** Current register value without advancing. */
    uint16_t value() const { return state_; }

    /**
     * Overwrite the register with a checkpointed value; zero (which an
     * LFSR can never reach) is replaced by the 0xACE1 seed convention.
     */
    void setState(uint16_t state) { state_ = state ? state : 0xACE1u; }

    /**
     * Advance and report a 1-in-2^log2Denominator event, i.e. true with
     * probability 1 / (1 << log2_denominator). log2_denominator == 0
     * always returns true (probability 1).
     */
    bool
    oneIn(unsigned log2_denominator)
    {
        if (log2_denominator == 0)
            return true;
        const uint16_t draw = next();
        const uint16_t mask = static_cast<uint16_t>(
            (1u << (log2_denominator > 15 ? 15 : log2_denominator)) - 1u);
        return (draw & mask) == 0;
    }

  private:
    uint16_t state_;
};

} // namespace tagecon

#endif // TAGECON_UTIL_RANDOM_HPP
