/**
 * @file
 * Minimal SIMD shim for the predictor hot paths.
 *
 * The batched TAGE index pass needs four-lane uint32_t vectors: the
 * folded-history step and the index/tag hash run on them. SSE2 and
 * NEON backends are selected at compile time; the lanes are written
 * once with GCC/Clang vector extensions, which lower to either.
 * Defining TAGECON_NO_SIMD (the CMake option of the same name) forces
 * the scalar fallbacks, which are bit-identical by construction and
 * CI-gated. The TAGECON_SIMD_* macros below also name the backend a
 * build selected, for the tools that report it (perfbench).
 */

#ifndef TAGECON_UTIL_SIMD_HPP
#define TAGECON_UTIL_SIMD_HPP

#include <cstdint>
#include <cstring>

#if !defined(TAGECON_NO_SIMD)
#if defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define TAGECON_SIMD_SSE2 1
#elif defined(__aarch64__) && \
    (defined(__ARM_NEON) || defined(__ARM_NEON__))
#define TAGECON_SIMD_NEON 1
#endif
#endif

// The four-lane vectors need the GCC/Clang vector extensions on top
// of a vector backend; elsewhere callers keep their scalar loops.
#if (defined(TAGECON_SIMD_SSE2) || defined(TAGECON_SIMD_NEON)) && \
    (defined(__GNUC__) || defined(__clang__))
#define TAGECON_SIMD_LANES 1
#endif

namespace tagecon::simd {

#if defined(TAGECON_SIMD_LANES)
/** Four uint32_t lanes: one SSE2 or NEON register. */
typedef uint32_t U32x4 __attribute__((vector_size(16)));

/** The same register viewed as signed lanes, for compares. */
typedef int32_t I32x4 __attribute__((vector_size(16)));

/** Load four lanes from @p p (no alignment required). */
inline U32x4
load4(const uint32_t* p)
{
    U32x4 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/** @p x in all four lanes. */
inline U32x4
splat4(uint32_t x)
{
    return U32x4{x, x, x, x};
}

/** Store four lanes to @p p (no alignment required). */
inline void
store4(uint32_t* p, U32x4 v)
{
    std::memcpy(p, &v, sizeof v);
}

/**
 * Lanes I, J, K, L of the eight-lane concatenation of @p a and @p b
 * (0-3 pick from a, 4-7 from b).
 */
template <int I, int J, int K, int L>
inline U32x4
shuffle4(U32x4 a, U32x4 b)
{
#if defined(__clang__)
    return __builtin_shufflevector(a, b, I, J, K, L);
#else
    return __builtin_shuffle(a, b, U32x4{I, J, K, L});
#endif
}

/**
 * Transpose the first three columns of the 4x4 matrix whose rows are
 * @p r0..r3: on return r0 holds lane 0 of each input, r1 lane 1 and
 * r2 lane 2 (lane 3 is dropped).
 */
inline void
transpose4x3(U32x4& r0, U32x4& r1, U32x4& r2, U32x4 r3)
{
    const U32x4 lo01 = shuffle4<0, 4, 1, 5>(r0, r1);
    const U32x4 lo23 = shuffle4<0, 4, 1, 5>(r2, r3);
    const U32x4 hi01 = shuffle4<2, 6, 3, 7>(r0, r1);
    const U32x4 hi23 = shuffle4<2, 6, 3, 7>(r2, r3);
    r0 = shuffle4<0, 1, 4, 5>(lo01, lo23);
    r1 = shuffle4<2, 3, 6, 7>(lo01, lo23);
    r2 = shuffle4<0, 1, 4, 5>(hi01, hi23);
}

/**
 * One FoldedHistory::update step in each lane. Every lane holds a
 * fold of some width w in [1, 31] (comp < 2^w), and @p in_out carries
 * the newest outcome in bit 0 xor the outgoing bit at the lane's out
 * point (below bit w). After the shift, the scalar
 * "comp ^= comp >> w; comp &= (1 << w) - 1" moves the carry out of
 * bit w - 1 into bit 0. Per lane that carry is a signed compare of
 * the pre-shift comp against @p half = (1 << (w - 1)) - 1, and
 * applying it is an xor with @p wrap = (1 << w) | 1. That needs no
 * per-lane shift counts, which SSE2 lacks, and the compare runs beside
 * the shift instead of after it.
 */
inline U32x4
foldStep4(U32x4 comp, U32x4 in_out, U32x4 half, U32x4 wrap)
{
    const U32x4 carry =
        reinterpret_cast<U32x4>(reinterpret_cast<I32x4>(comp) >
                                reinterpret_cast<I32x4>(half)) &
        wrap;
    return ((comp << 1) ^ in_out) ^ carry;
}
#endif

} // namespace tagecon::simd

#endif // TAGECON_UTIL_SIMD_HPP
