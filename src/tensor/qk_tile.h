/**
 * @file
 * The QK^T row body of `kernels::qkScoresRowsF32` and the pieces it
 * inlines: the one-query key blocks (`qkBlock`), the 4-query x 16-key
 * register tile (`qkTile4x16`) and the GNU vector types the kernels
 * keep their lanes in.
 *
 * Internal to the kernel layer: kernels.cc instantiates the row body
 * once per x86-64 level it compiles for, and tests/test_kernels.cc
 * instantiates both geometries at the test's own ISA, so every host
 * checks the one its kernels do not run.  Everything here is inlined
 * into its caller and takes that caller's ISA; GNU vectors lower on
 * any target (a 16-float vector is one zmm under x86-64-v4, two ymm
 * under v3, four xmm at the baseline).
 *
 * Plain mul + add throughout (the build never contracts them): every
 * product rounds before it accumulates, so each geometry gives every
 * score the bits of ops.h `dot`'s 4-way lane split.
 */

#ifndef FOCUS_TENSOR_QK_TILE_H
#define FOCUS_TENSOR_QK_TILE_H

#include <algorithm>
#include <cstdint>
#include <cstring>

// The kernels need GCC or Clang: the QK^T tiles keep their lane sets
// in GNU vector types, and the helpers below are GNU attributes.
//
// Restrict qualifier: the microkernels rely on it so the compiler can
// vectorize the packed-panel loops without alias checks.
#define FOCUS_RESTRICT __restrict__

// Tile helpers are forced inline into their multi-versioned caller,
// so each version compiles them with its own ISA: out of line they
// would run the default target's SSE2 code.
#define FOCUS_ALWAYS_INLINE inline __attribute__((always_inline))

namespace focus
{
namespace kernels
{
namespace detail
{

constexpr int64_t kLanes = 8; ///< one ymm of floats

/**
 * Four, eight and sixteen floats as one GNU vector, loaded and stored
 * with std::memcpy, so no alignment is assumed.  None is ever passed
 * or returned by value: under -Wpsabi a vector argument of a function
 * built without clones draws a warning.
 */
using Vec4 = float __attribute__((vector_size(4 * sizeof(float))));
using Vec8 = float __attribute__((vector_size(kLanes * sizeof(float))));
using Vec16 = float __attribute__((vector_size(2 * kLanes * sizeof(float))));

/** Column padding of the transposed key panel: the widest QK^T block. */
constexpr int64_t kQkPad = 16;

/** Query rows per key-block-outer group of qkScoresRowsF32. */
constexpr int64_t kQkGroup = 16;

/**
 * Single-row remainder of dot4 (same lane split as `dot`): lane e
 * accumulates k = e, e+4, ... by a rounded multiply and an add, the
 * k % 4 tail folds into lane 0, and the result is (l0+l1)+(l2+l3).
 * Inlined like the tiles, so each caller's version runs it at that
 * version's level with no call through an ifunc.  The four lanes are
 * one Vec4: as a float[4] array GCC 12 unrolled the v4 lane loop
 * into scalar adds.
 */
FOCUS_ALWAYS_INLINE float
dot1(const float *FOCUS_RESTRICT q, const float *FOCUS_RESTRICT b,
     int64_t k)
{
    Vec4 l = {}, qv, bv;
    const int64_t full = k & ~int64_t{3};
    for (int64_t p = 0; p < full; p += 4) {
        std::memcpy(&qv, q + p, sizeof(qv));
        std::memcpy(&bv, b + p, sizeof(bv));
        l += qv * bv;
    }
    // At most three tail terms: with the count bounded GCC 12 keeps
    // this loop scalar instead of adding a vectorized copy.
    float l0 = l[0];
    for (int64_t p = 0; p < (k & 3); ++p) {
        l0 += q[full + p] * b[full + p];
    }
    return (l0 + l[1]) + (l[2] + l[3]);
}

/**
 * One query against W consecutive keys of a transposed key panel
 * (kt[p*ldt + c] is component p of key c): out[c] gets exactly dot4's
 * per-element arithmetic — lane e accumulates k = e, e+4, ...; the
 * scalar tail folds into lane 0; the result is (l0+l1)+(l2+l3) times
 * scale.  The transposed layout turns each depth step into one
 * broadcast of q times a contiguous W-wide key row.  The four lane
 * sets are vectors of 8 keys, so every add of the final combine is a
 * vector add too: with plain float arrays GCC 12 combines (l2 + l3)
 * in scalar adds and lane shuffles.
 */
template <int64_t W>
FOCUS_ALWAYS_INLINE void
qkBlock(const float *FOCUS_RESTRICT q, const float *FOCUS_RESTRICT kt,
        int64_t ldt, int64_t k, float scale, float *FOCUS_RESTRICT out)
{
    constexpr int64_t kBlocks = W / kLanes;
    Vec8 l0[kBlocks] = {}, l1[kBlocks] = {};
    Vec8 l2[kBlocks] = {}, l3[kBlocks] = {};
    Vec8 kv = {};
    int64_t p = 0;
    for (; p + 4 <= k; p += 4) {
        const float q0 = q[p], q1 = q[p + 1];
        const float q2 = q[p + 2], q3 = q[p + 3];
        const float *FOCUS_RESTRICT k0 = kt + p * ldt;
        const float *FOCUS_RESTRICT k1 = k0 + ldt;
        const float *FOCUS_RESTRICT k2 = k1 + ldt;
        const float *FOCUS_RESTRICT k3 = k2 + ldt;
        for (int64_t b = 0; b < kBlocks; ++b) {
            std::memcpy(&kv, k0 + b * kLanes, sizeof(kv));
            l0[b] += q0 * kv;
            std::memcpy(&kv, k1 + b * kLanes, sizeof(kv));
            l1[b] += q1 * kv;
            std::memcpy(&kv, k2 + b * kLanes, sizeof(kv));
            l2[b] += q2 * kv;
            std::memcpy(&kv, k3 + b * kLanes, sizeof(kv));
            l3[b] += q3 * kv;
        }
    }
    for (; p < k; ++p) {
        const float qv = q[p];
        const float *FOCUS_RESTRICT krow = kt + p * ldt;
        for (int64_t b = 0; b < kBlocks; ++b) {
            std::memcpy(&kv, krow + b * kLanes, sizeof(kv));
            l0[b] += qv * kv;
        }
    }
    for (int64_t b = 0; b < kBlocks; ++b) {
        const Vec8 r = ((l0[b] + l1[b]) + (l2[b] + l3[b])) * scale;
        std::memcpy(out + b * kLanes, &r, sizeof(r));
    }
}

/**
 * Four queries against 16 consecutive keys of the transposed panel,
 * each with qkBlock<16>'s per-element arithmetic: query r keeps its
 * four lane sets as 16-key vectors a_r[0..3], lane e takes depth
 * e, e+4, ..., the k % 4 tail folds into lane 0, and o_r gets
 * ((l0+l1)+(l2+l3))*scale.  Each depth step is one 16-key row load,
 * four multiplies by a broadcast query value and four adds; the
 * sixteen accumulators are half the x86-64-v4 register file but
 * twice the v3 one, so only the v4 version runs this tile.
 */
FOCUS_ALWAYS_INLINE void
qkTile4x16(const float *FOCUS_RESTRICT q0, const float *FOCUS_RESTRICT q1,
           const float *FOCUS_RESTRICT q2, const float *FOCUS_RESTRICT q3,
           const float *FOCUS_RESTRICT kt, int64_t ldt, int64_t k,
           float scale, float *FOCUS_RESTRICT o0,
           float *FOCUS_RESTRICT o1, float *FOCUS_RESTRICT o2,
           float *FOCUS_RESTRICT o3)
{
    Vec16 a0[4] = {}, a1[4] = {}, a2[4] = {}, a3[4] = {};
    Vec16 kv = {};
    const int64_t full = k & ~int64_t{3};
    for (int64_t p = 0; p < full; p += 4) {
        for (int64_t e = 0; e < 4; ++e) {
            std::memcpy(&kv, kt + (p + e) * ldt, sizeof(kv));
            a0[e] += q0[p + e] * kv;
            a1[e] += q1[p + e] * kv;
            a2[e] += q2[p + e] * kv;
            a3[e] += q3[p + e] * kv;
        }
    }
    // At most three tail terms: a bound GCC 12 can see (an open
    // `p < k` loop here draws -Waggressive-loop-optimizations).
    for (int64_t p = full; p < full + (k & 3); ++p) {
        std::memcpy(&kv, kt + p * ldt, sizeof(kv));
        a0[0] += q0[p] * kv;
        a1[0] += q1[p] * kv;
        a2[0] += q2[p] * kv;
        a3[0] += q3[p] * kv;
    }
    Vec16 r = ((a0[0] + a0[1]) + (a0[2] + a0[3])) * scale;
    std::memcpy(o0, &r, sizeof(r));
    r = ((a1[0] + a1[1]) + (a1[2] + a1[3])) * scale;
    std::memcpy(o1, &r, sizeof(r));
    r = ((a2[0] + a2[1]) + (a2[2] + a2[3])) * scale;
    std::memcpy(o2, &r, sizeof(r));
    r = ((a3[0] + a3[1]) + (a3[2] + a3[3])) * scale;
    std::memcpy(o3, &r, sizeof(r));
}

/**
 * The body of qkScoresRowsF32 (tensor/kernels.h has the contract) with
 * @p TileRows query rows per shared 16-key block: 1 runs qkBlock<16>
 * per row, 4 runs qkTile4x16 over the group's rows four at a time and
 * qkBlock<16> over the last n % 4.
 *
 * Per row the dotRowsScaled split is kept: the 4-aligned prefix
 * [0, (i+1) & ~3) runs dot4 arithmetic in 16- and 8-key blocks, the
 * ragged tail runs dot1 on the untransposed keys.  A group's shared
 * 16-key blocks, [0, min over its rows of (i+1) & ~15), run key block
 * outer; each row then starts its own loop where they end.  A last
 * partial 8-block (4 keys) is scored into a temporary tile, so nothing
 * past the diagonal is written; the panel is padded to kQkPad
 * columns, so every block reads inside it.
 */
template <int64_t TileRows>
FOCUS_ALWAYS_INLINE void
qkScoresRowsBody(const float *q, int64_t ldq, const float *keys,
                 int64_t ldk, const float *kt, int64_t ldt,
                 const int64_t *src, int64_t n, int64_t k, float scale,
                 float *out, int64_t ldo)
{
    static_assert(TileRows == 1 || TileRows == 4, "QK^T tile rows");
    for (int64_t g0 = 0; g0 < n; g0 += kQkGroup) {
        const int64_t g1 = std::min(n, g0 + kQkGroup);
        int64_t shared = (src[g0] + 1) & ~int64_t{15};
        for (int64_t r = g0 + 1; r < g1; ++r) {
            shared = std::min(shared, (src[r] + 1) & ~int64_t{15});
        }
        for (int64_t j = 0; j < shared; j += 16) {
            int64_t r = g0;
            if constexpr (TileRows == 4) {
                for (; r + 4 <= g1; r += 4) {
                    float *o = out + r * ldo + j;
                    qkTile4x16(q + src[r] * ldq, q + src[r + 1] * ldq,
                               q + src[r + 2] * ldq, q + src[r + 3] * ldq,
                               kt + j, ldt, k, scale, o, o + ldo,
                               o + 2 * ldo, o + 3 * ldo);
                }
            }
            for (; r < g1; ++r) {
                qkBlock<16>(q + src[r] * ldq, kt + j, ldt, k, scale,
                            out + r * ldo + j);
            }
        }
        for (int64_t r = g0; r < g1; ++r) {
            const float *qi = q + src[r] * ldq;
            float *orow = out + r * ldo;
            const int64_t count = src[r] + 1;
            const int64_t full4 = count & ~int64_t{3};
            int64_t j = shared;
            for (; j + 16 <= full4; j += 16) {
                qkBlock<16>(qi, kt + j, ldt, k, scale, orow + j);
            }
            if (j + 8 <= full4) {
                qkBlock<8>(qi, kt + j, ldt, k, scale, orow + j);
                j += 8;
            }
            if (j < full4) {
                // Four keys: j steps by 8 and full4 by 4.  A copy of
                // a variable length would be a call to memcpy.
                float tile[8];
                qkBlock<8>(qi, kt + j, ldt, k, scale, tile);
                for (int64_t e = 0; e < 4; ++e) {
                    orow[j + e] = tile[e];
                }
            }
            for (j = full4; j < count; ++j) {
                orow[j] = dot1(qi, keys + j * ldk, k) * scale;
            }
        }
    }
}

} // namespace detail
} // namespace kernels
} // namespace focus

#endif // FOCUS_TENSOR_QK_TILE_H
