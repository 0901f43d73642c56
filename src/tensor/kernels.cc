#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/env_dispatch.h"
#include "common/half.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"

// Portable restrict qualifier: the microkernels rely on it so the
// compiler can vectorize the packed-panel loops without alias checks.
#if defined(_MSC_VER)
#define FOCUS_RESTRICT __restrict
#else
#define FOCUS_RESTRICT __restrict__
#endif

// Tile helpers are forced inline into their FOCUS_KERNEL_CLONES
// caller, so each clone compiles them with its own ISA and the same
// mul+add contraction as the loop they tile.
#if defined(_MSC_VER)
#define FOCUS_ALWAYS_INLINE __forceinline
#else
#define FOCUS_ALWAYS_INLINE inline __attribute__((always_inline))
#endif

// Function multi-versioning for the hot FP kernels: on x86-64 the
// loader picks the widest clone the CPU supports (x86-64-v3 = AVX2 +
// FMA, then AVX2, then baseline SSE2) — no -march flags, so the
// binary stays portable.  The v3 clone contracts each mul+add step
// into one FMA, which changes rounding vs the baseline clone; to keep
// the blocked-vs-naive bit-identity invariant machine-independent,
// the SAME clone list is applied to the naive reference loops in
// tests/reference/gemm.h, so kernel and reference contract
// identically on any given machine.  (Cross-machine value drift already exists via libm; all
// determinism contracts in this repo are within-build.)
#ifndef __has_attribute
#define __has_attribute(x) 0
#endif
#if defined(__x86_64__) && __has_attribute(target_clones) &&          \
    defined(__linux__)
#define FOCUS_KERNEL_CLONES                                           \
    __attribute__((                                                   \
        target_clones("default", "avx2", "arch=x86-64-v3")))
#else
#define FOCUS_KERNEL_CLONES
#endif

namespace focus
{
namespace kernels
{

namespace
{

// -----------------------------------------------------------------
// Backend selection
// -----------------------------------------------------------------

MathBackend
mathBackendFromEnv()
{
    static const char *const names[] = {"exact", "vector"};
    return static_cast<MathBackend>(envBackendChoice(
        "FOCUS_MATH_BACKEND", names, 2,
        static_cast<int>(MathBackend::Exact)));
}

std::atomic<MathBackend> g_math_backend{mathBackendFromEnv()};

// -----------------------------------------------------------------
// Packing
//
// B is packed once per gemm call into column panels of kNr: panel jp
// holds, for each depth step p, the kNr values b[p][jp*kNr .. +kNr),
// zero-padded past n.  The microkernel then streams one contiguous
// kNr-wide panel slice per K block.  A is packed per (M block, K
// block) into row quads of kMr: quad iq holds, for each depth step p,
// the kMr values a[iq*kMr .. +kMr)[p], zero-padded past m.  fp16
// operand rounding happens here, once per element, so the microkernel
// hot loop stays branch-free.
// -----------------------------------------------------------------

void
packB(const float *b, int64_t ldb, int64_t k, int64_t n, bool fp16,
      float *FOCUS_RESTRICT dst)
{
    const int64_t full = (n / kNr) * kNr;
    const int64_t panel_stride = k * kNr;
    // Row-major pass over B: each source row is read once
    // sequentially and scattered into the per-panel slots for depth
    // step p.
    for (int64_t p = 0; p < k; ++p) {
        const float *FOCUS_RESTRICT src = b + p * ldb;
        float *out = dst + p * kNr;
        int64_t j0 = 0;
        if (fp16) {
            for (; j0 < full; j0 += kNr, out += panel_stride) {
                for (int64_t j = 0; j < kNr; ++j) {
                    out[j] = fp16Round(src[j0 + j]);
                }
            }
        } else {
            for (; j0 < full; j0 += kNr, out += panel_stride) {
                for (int64_t j = 0; j < kNr; ++j) {
                    out[j] = src[j0 + j];
                }
            }
        }
        if (j0 < n) {
            const int64_t nr = n - j0;
            for (int64_t j = 0; j < nr; ++j) {
                out[j] = fp16 ? fp16Round(src[j0 + j]) : src[j0 + j];
            }
            for (int64_t j = nr; j < kNr; ++j) {
                out[j] = 0.0f;
            }
        }
    }
}

void
packA(const float *a, int64_t lda, const int64_t *a_rows, int64_t i0,
      int64_t mb, int64_t k0, int64_t kc, bool fp16,
      float *FOCUS_RESTRICT dst)
{
    const int64_t full = (mb / kMr) * kMr;
    int64_t iq = 0;
    // Full quads: branch-free 4-row interleave.
    for (; iq < full; iq += kMr, dst += kMr * kc) {
        const float *FOCUS_RESTRICT r0;
        const float *FOCUS_RESTRICT r1;
        const float *FOCUS_RESTRICT r2;
        const float *FOCUS_RESTRICT r3;
        if (a_rows != nullptr) {
            r0 = a + a_rows[i0 + iq] * lda + k0;
            r1 = a + a_rows[i0 + iq + 1] * lda + k0;
            r2 = a + a_rows[i0 + iq + 2] * lda + k0;
            r3 = a + a_rows[i0 + iq + 3] * lda + k0;
        } else {
            r0 = a + (i0 + iq) * lda + k0;
            r1 = r0 + lda;
            r2 = r1 + lda;
            r3 = r2 + lda;
        }
        if (fp16) {
            for (int64_t p = 0; p < kc; ++p) {
                dst[p * kMr] = fp16Round(r0[p]);
                dst[p * kMr + 1] = fp16Round(r1[p]);
                dst[p * kMr + 2] = fp16Round(r2[p]);
                dst[p * kMr + 3] = fp16Round(r3[p]);
            }
        } else {
            for (int64_t p = 0; p < kc; ++p) {
                dst[p * kMr] = r0[p];
                dst[p * kMr + 1] = r1[p];
                dst[p * kMr + 2] = r2[p];
                dst[p * kMr + 3] = r3[p];
            }
        }
    }
    // Trailing partial quad: zero-fill, then copy the valid rows.
    if (iq < mb) {
        std::fill(dst, dst + kMr * kc, 0.0f);
        for (int64_t r = 0; iq + r < mb; ++r) {
            const int64_t i = i0 + iq + r;
            const int64_t src_row = a_rows != nullptr ? a_rows[i] : i;
            const float *FOCUS_RESTRICT src = a + src_row * lda + k0;
            for (int64_t p = 0; p < kc; ++p) {
                dst[p * kMr + r] = fp16 ? fp16Round(src[p]) : src[p];
            }
        }
    }
}

// -----------------------------------------------------------------
// Microkernels
//
// micro4x8: the full-tile kernel.  ap is a packed kMr-row quad
// (kMr values per depth step), bp a packed kNr-wide panel slice.  On
// the first K block (load_c false) the accumulators start at zero —
// folding the output zeroing into the kernel; later K blocks load the
// partial C tile first and accumulation across K blocks stays
// strictly sequential in k per element — the bit-exactness invariant.
// -----------------------------------------------------------------

FOCUS_KERNEL_CLONES void
micro4x8(int64_t kc, const float *FOCUS_RESTRICT ap,
         const float *FOCUS_RESTRICT bp, float *FOCUS_RESTRICT c,
         int64_t ldc, bool load_c)
{
    float acc[kMr][kNr] = {};
    if (load_c) {
        for (int64_t r = 0; r < kMr; ++r) {
            for (int64_t j = 0; j < kNr; ++j) {
                acc[r][j] = c[r * ldc + j];
            }
        }
    }
    // Per-row inner loops: each row's 8-wide update is an independent
    // j-loop, which GCC turns into exactly one broadcast + one 8-lane
    // multiply-add per row per depth step.
    for (int64_t p = 0; p < kc; ++p) {
        for (int64_t r = 0; r < kMr; ++r) {
            const float ar = ap[r];
            for (int64_t j = 0; j < kNr; ++j) {
                acc[r][j] += ar * bp[j];
            }
        }
        ap += kMr;
        bp += kNr;
    }
    for (int64_t r = 0; r < kMr; ++r) {
        for (int64_t j = 0; j < kNr; ++j) {
            c[r * ldc + j] = acc[r][j];
        }
    }
}

/** Edge-tile variant: identical accumulation, partial C load/store. */
FOCUS_KERNEL_CLONES void
microEdge(int64_t kc, const float *FOCUS_RESTRICT ap,
          const float *FOCUS_RESTRICT bp, float *FOCUS_RESTRICT c,
          int64_t ldc, int64_t mr, int64_t nr, bool load_c)
{
    float acc[kMr][kNr] = {};
    if (load_c) {
        for (int64_t r = 0; r < mr; ++r) {
            for (int64_t j = 0; j < nr; ++j) {
                acc[r][j] = c[r * ldc + j];
            }
        }
    }
    for (int64_t p = 0; p < kc; ++p) {
        for (int64_t r = 0; r < kMr; ++r) {
            const float ar = ap[r];
            for (int64_t j = 0; j < kNr; ++j) {
                acc[r][j] += ar * bp[j];
            }
        }
        ap += kMr;
        bp += kNr;
    }
    for (int64_t r = 0; r < mr; ++r) {
        for (int64_t j = 0; j < nr; ++j) {
            c[r * ldc + j] = acc[r][j];
        }
    }
}

/**
 * One M block: pack A per K block and run the panel microkernels.
 * Writes only C rows [i0, i0+mb), so concurrent blocks never overlap.
 */
void
gemmBlock(int64_t i0, int64_t mb, int64_t n, int64_t k, const float *a,
          int64_t lda, const int64_t *a_rows, const float *bpack,
          float *c, int64_t ldc, bool fp16, bool accumulate)
{
    static thread_local std::vector<float> apack;
    const int64_t mbp = ((mb + kMr - 1) / kMr) * kMr;
    const int64_t panels = (n + kNr - 1) / kNr;
    for (int64_t k0 = 0; k0 < k; k0 += kKc) {
        const int64_t kc = std::min(kKc, k - k0);
        // The first K block starts accumulators at zero unless the
        // caller asked to accumulate into existing C.
        const bool load_c = accumulate || k0 > 0;
        apack.resize(static_cast<size_t>(mbp * kc));
        packA(a, lda, a_rows, i0, mb, k0, kc, fp16, apack.data());
        for (int64_t jp = 0; jp < panels; ++jp) {
            const int64_t nr = std::min(kNr, n - jp * kNr);
            const float *bp = bpack + jp * (k * kNr) + k0 * kNr;
            for (int64_t iq = 0; iq < mb; iq += kMr) {
                const int64_t mr = std::min(kMr, mb - iq);
                const float *ap =
                    apack.data() + (iq / kMr) * (kc * kMr);
                float *cp = c + (i0 + iq) * ldc + jp * kNr;
                if (mr == kMr && nr == kNr) {
                    micro4x8(kc, ap, bp, cp, ldc, load_c);
                } else {
                    microEdge(kc, ap, bp, cp, ldc, mr, nr, load_c);
                }
            }
        }
    }
}

/** Single-row remainder of dot4 (same lane split as `dot`). */
FOCUS_KERNEL_CLONES float
dot1(const float *FOCUS_RESTRICT q, const float *FOCUS_RESTRICT b,
     int64_t k)
{
    float l[4] = {};
    int64_t p = 0;
    for (; p + 4 <= k; p += 4) {
        for (int64_t e = 0; e < 4; ++e) {
            l[e] += q[p + e] * b[p + e];
        }
    }
    for (; p < k; ++p) {
        l[0] += q[p] * b[p];
    }
    return (l[0] + l[1]) + (l[2] + l[3]);
}

// -----------------------------------------------------------------
// dot4 and the transposed QK^T tiles: FP contraction pinned OFF.
//
// qkScoresCausalF32 scores most keys in the transposed tiles below
// and promises per-element bit-identity with dotRowsScaled, whose
// full key groups run dot4.  Under the project-wide
// -ffp-contract=fast the compiler decides per body whether a mul+add
// becomes an FMA, so two separately compiled bodies agree only by
// codegen luck (a fused-query tile once drifted 1 ulp from dot4 this
// way).  Pinning contraction off for dot4 and the tiles makes the
// agreement a contract: each product rounds before it accumulates,
// in every clone, on every compiler.  dot1 stays outside the pin;
// the ragged tails of both paths share it.  Both kernels are only
// ever called with k = headDim (a multiple of 4), so the pinned
// scalar tails never run in practice.
// -----------------------------------------------------------------
#if defined(__clang__)
#define FOCUS_FP_CONTRACT_OFF _Pragma("clang fp contract(off)")
#else
#define FOCUS_FP_CONTRACT_OFF
#endif
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
#endif

/**
 * Four-row dot microkernel preserving ops.h `dot`'s 4-way lane split:
 * per output, lane L accumulates terms k = L, L+4, L+8, ... and the
 * tail (k % 4 leftovers) folds into lane 0; the final sum is
 * (l0+l1)+(l2+l3), exactly as `dot` computes it.
 */
FOCUS_KERNEL_CLONES void
dot4(const float *FOCUS_RESTRICT q, const float *FOCUS_RESTRICT b0,
     const float *FOCUS_RESTRICT b1, const float *FOCUS_RESTRICT b2,
     const float *FOCUS_RESTRICT b3, int64_t k, float scale,
     float *FOCUS_RESTRICT out)
{
    FOCUS_FP_CONTRACT_OFF
    float l0[4] = {}, l1[4] = {}, l2[4] = {}, l3[4] = {};
    int64_t p = 0;
    for (; p + 4 <= k; p += 4) {
        for (int64_t e = 0; e < 4; ++e) {
            const float qv = q[p + e];
            l0[e] += qv * b0[p + e];
            l1[e] += qv * b1[p + e];
            l2[e] += qv * b2[p + e];
            l3[e] += qv * b3[p + e];
        }
    }
    for (; p < k; ++p) {
        const float qv = q[p];
        l0[0] += qv * b0[p];
        l1[0] += qv * b1[p];
        l2[0] += qv * b2[p];
        l3[0] += qv * b3[p];
    }
    out[0] = ((l0[0] + l0[1]) + (l0[2] + l0[3])) * scale;
    out[1] = ((l1[0] + l1[1]) + (l1[2] + l1[3])) * scale;
    out[2] = ((l2[0] + l2[1]) + (l2[2] + l2[3])) * scale;
    out[3] = ((l3[0] + l3[1]) + (l3[2] + l3[3])) * scale;
}

/** Column padding of the transposed key panel: the widest QK^T block. */
constexpr int64_t kQkPad = 16;

/**
 * One query against W consecutive keys of a transposed key panel
 * (kt[p*ldt + c] is component p of key c): out[c] gets exactly dot4's
 * per-element arithmetic — lane e accumulates k = e, e+4, ...; the
 * scalar tail folds into lane 0; the result is (l0+l1)+(l2+l3) times
 * scale.  The transposed layout turns each depth step into one
 * broadcast of q times a contiguous W-wide key row, so the 4 x W
 * accumulators live in vector registers.  Always inlined: a body
 * compiled on its own would carry the default target's codegen into
 * every clone of the caller.
 */
template <int64_t W>
FOCUS_ALWAYS_INLINE void
qkBlock(const float *FOCUS_RESTRICT q, const float *FOCUS_RESTRICT kt,
        int64_t ldt, int64_t k, float scale, float *FOCUS_RESTRICT out)
{
    FOCUS_FP_CONTRACT_OFF
    float l0[W] = {}, l1[W] = {}, l2[W] = {}, l3[W] = {};
    int64_t p = 0;
    for (; p + 4 <= k; p += 4) {
        const float q0 = q[p], q1 = q[p + 1];
        const float q2 = q[p + 2], q3 = q[p + 3];
        const float *FOCUS_RESTRICT k0 = kt + p * ldt;
        const float *FOCUS_RESTRICT k1 = k0 + ldt;
        const float *FOCUS_RESTRICT k2 = k1 + ldt;
        const float *FOCUS_RESTRICT k3 = k2 + ldt;
        for (int64_t c = 0; c < W; ++c) {
            l0[c] += q0 * k0[c];
            l1[c] += q1 * k1[c];
            l2[c] += q2 * k2[c];
            l3[c] += q3 * k3[c];
        }
    }
    for (; p < k; ++p) {
        const float qv = q[p];
        const float *FOCUS_RESTRICT krow = kt + p * ldt;
        for (int64_t c = 0; c < W; ++c) {
            l0[c] += qv * krow[c];
        }
    }
    for (int64_t c = 0; c < W; ++c) {
        out[c] = ((l0[c] + l1[c]) + (l2[c] + l3[c])) * scale;
    }
}

/**
 * Causal scores from a transposed key panel (see qkScoresCausalF32).
 * Per row i the dotRowsScaled split is kept: the 4-aligned prefix
 * [0, (i+1) & ~3) runs dot4 arithmetic in 16- and 8-key blocks, the
 * ragged tail runs dot1 on the untransposed keys.  A last partial
 * 8-block (4 keys) is scored into a temporary tile, so nothing past the
 * diagonal is written; the panel is padded to kQkPad columns, so every
 * block reads inside it.
 */
FOCUS_KERNEL_CLONES void
qkScoresPanel(const float *q, int64_t ldq, const float *kt, int64_t ldt,
              const float *keys, int64_t ldk, int64_t rows, int64_t k,
              float scale, float *out, int64_t ldo)
{
    for (int64_t i = 0; i < rows; ++i) {
        const float *qi = q + i * ldq;
        float *orow = out + i * ldo;
        const int64_t count = i + 1;
        const int64_t full4 = count & ~int64_t{3};
        int64_t j = 0;
        for (; j + 16 <= full4; j += 16) {
            qkBlock<16>(qi, kt + j, ldt, k, scale, orow + j);
        }
        if (j + 8 <= full4) {
            qkBlock<8>(qi, kt + j, ldt, k, scale, orow + j);
            j += 8;
        }
        if (j < full4) {
            float tile[8];
            qkBlock<8>(qi, kt + j, ldt, k, scale, tile);
            std::copy(tile, tile + (full4 - j), orow + j);
        }
        for (j = full4; j < count; ++j) {
            orow[j] = dot1(qi, keys + j * ldk, k) * scale;
        }
    }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif

// -----------------------------------------------------------------
// P*V register tile
//
// Unlike the QK^T tiles these are NOT under the contraction pin: they
// reproduce pvCausalF32's historical in-memory loop, which the
// project-wide -ffp-contract=fast lets each clone contract (FMA in
// the x86-64-v3 clone).  Each element still has one accumulator,
// summed in ascending j, so the tile and the loop agree bit for bit
// as long as both are compiled into the same clone — hence
// always_inline into the FOCUS_KERNEL_CLONES caller.
// -----------------------------------------------------------------

constexpr int64_t kPvLanes = 8;  ///< one ymm of floats
constexpr int64_t kPvCols = 32; ///< P*V tile width (4 ymm per row)

/** orow[c] += p[j] * v[j][c] for j in [j0, j1), c in [c0, c1). */
FOCUS_ALWAYS_INLINE void
pvAccumulate(const float *FOCUS_RESTRICT prow, int64_t j0, int64_t j1,
             const float *FOCUS_RESTRICT v, int64_t ldv,
             float *FOCUS_RESTRICT orow, int64_t c0, int64_t c1)
{
    for (int64_t j = j0; j < j1; ++j) {
        const float pj = prow[j];
        const float *FOCUS_RESTRICT vrow = v + j * ldv;
        for (int64_t c = c0; c < c1; ++c) {
            orow[c] += pj * vrow[c];
        }
    }
}

/** pvCausalF32's single-row loop over columns [c0, c1). */
FOCUS_ALWAYS_INLINE void
pvRow(const float *FOCUS_RESTRICT prow, int64_t lim,
      const float *FOCUS_RESTRICT v, int64_t ldv,
      float *FOCUS_RESTRICT orow, int64_t c0, int64_t c1)
{
    for (int64_t c = c0; c < c1; ++c) {
        orow[c] = 0.0f;
    }
    pvAccumulate(prow, 0, lim, v, ldv, orow, c0, c1);
}

/**
 * Two output rows x kPvCols columns over their shared key range
 * [0, shared): both rows' accumulators stay in registers and every V
 * row slice loaded feeds two rows.  The accumulators are blocks of
 * kPvLanes: with one flat 32-wide array per row GCC 12 keeps them on
 * the stack instead.
 */
FOCUS_ALWAYS_INLINE void
pvTile2(const float *FOCUS_RESTRICT p0, const float *FOCUS_RESTRICT p1,
        int64_t shared, const float *FOCUS_RESTRICT v, int64_t ldv,
        float *FOCUS_RESTRICT o0, float *FOCUS_RESTRICT o1)
{
    constexpr int64_t kBlocks = kPvCols / kPvLanes;
    float a0[kBlocks][kPvLanes] = {}, a1[kBlocks][kPvLanes] = {};
    for (int64_t j = 0; j < shared; ++j) {
        const float x0 = p0[j], x1 = p1[j];
        const float *FOCUS_RESTRICT vrow = v + j * ldv;
        for (int64_t b = 0; b < kBlocks; ++b) {
            for (int64_t c = 0; c < kPvLanes; ++c) {
                a0[b][c] += x0 * vrow[b * kPvLanes + c];
                a1[b][c] += x1 * vrow[b * kPvLanes + c];
            }
        }
    }
    for (int64_t b = 0; b < kBlocks; ++b) {
        for (int64_t c = 0; c < kPvLanes; ++c) {
            o0[b * kPvLanes + c] = a0[b][c];
            o1[b * kPvLanes + c] = a1[b][c];
        }
    }
}

// -----------------------------------------------------------------
// SFU tier internals
//
// The vector backend's transcendental core is a branch-free
// polynomial expf (Cephes 32-bit constants): clamp to the finite
// range, split x = n*ln2 + r with round-to-nearest via the 1.5*2^23
// trick, evaluate a degree-6 polynomial in r, scale by 2^n through
// the exponent bits.  NaN inputs survive the clamp via the final
// select; inputs below the clamp range (including -inf) flush to
// exactly 0 — see the comment at the flush blend — and +inf
// saturates to exp(hi), large but finite.  The helper is a plain
// inline function so each target_clones caller inlines it and
// vectorizes it with its own ISA (blends for the selects, cvtps2dq
// for the exponent cast).
// -----------------------------------------------------------------

inline float
expfPoly(float x)
{
    constexpr float hi = 88.0f; // exp(88) ~ 1.65e38 < FLT_MAX
    // Low clamp: with n >= round(-86*log2e) = -124 the final p*2^n
    // stays a *normal* float even for p ~ 0.7 — the multiply must
    // never produce a denormal, or every masked softmax entry would
    // pay a floating-point assist before the flush-to-zero blend
    // discards it.
    constexpr float lo = -86.0f;
    float xc = x > lo ? x : lo;  // NaN -> lo (cast below stays defined)
    xc = xc > hi ? hi : xc;
    const float z = xc * 1.44269504088896341f; // x / ln2
    const float t = z + 12582912.0f;           // 1.5*2^23 rounding trick
    const float n = t - 12582912.0f;
    float r = xc - n * 0.693359375f;   // ln2 high part
    r -= n * -2.12194440e-4f;          // ln2 low part
    float p = 1.9875691500e-4f;
    p = p * r + 1.3981999507e-3f;
    p = p * r + 8.3334519073e-3f;
    p = p * r + 4.1665795894e-2f;
    p = p * r + 1.6666665459e-1f;
    p = p * r + 5.0000001201e-1f;
    p = p * r * r + r + 1.0f;
    const int32_t bits = (static_cast<int32_t>(n) + 127) << 23;
    float scale;
    std::memcpy(&scale, &bits, sizeof(scale));
    float out = p * scale;
    // Flush-to-zero under the clamp range, like a hardware SFU (and
    // like libm, which underflows to 0 well before -87).  Without
    // this, softmax rows with -1e30 causal masks would emit ~1e-38
    // probabilities whose products are denormal — and denormal
    // operands stall the downstream P*V GEMM by two orders of
    // magnitude.
    out = x < lo ? 0.0f : out;
    return x != x ? x : out; // propagate NaN
}

FOCUS_KERNEL_CLONES void
expRowVector(float *FOCUS_RESTRICT row, int64_t n)
{
    for (int64_t j = 0; j < n; ++j) {
        row[j] = expfPoly(row[j]);
    }
}

/** Fused max/exp/normalize, 8-lane reductions (vector backend). */
FOCUS_KERNEL_CLONES void
softmaxRowVector(float *FOCUS_RESTRICT row, int64_t n)
{
    constexpr float ninf = -std::numeric_limits<float>::infinity();
    float m[8] = {ninf, ninf, ninf, ninf, ninf, ninf, ninf, ninf};
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        for (int64_t e = 0; e < 8; ++e) {
            const float v = row[j + e];
            m[e] = v > m[e] ? v : m[e];
        }
    }
    for (; j < n; ++j) {
        m[0] = row[j] > m[0] ? row[j] : m[0];
    }
    float mx = m[0];
    for (int64_t e = 1; e < 8; ++e) {
        mx = m[e] > mx ? m[e] : mx;
    }
    float s[8] = {};
    j = 0;
    for (; j + 8 <= n; j += 8) {
        for (int64_t e = 0; e < 8; ++e) {
            const float v = expfPoly(row[j + e] - mx);
            row[j + e] = v;
            s[e] += v;
        }
    }
    for (; j < n; ++j) {
        const float v = expfPoly(row[j] - mx);
        row[j] = v;
        s[0] += v;
    }
    const float sum =
        ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
    const float inv = 1.0f / sum;
    for (j = 0; j < n; ++j) {
        row[j] *= inv;
    }
}

/**
 * The historical tensor/ops.cc softmax row loop, verbatim and
 * deliberately NOT clone-versioned: it must keep producing the exact
 * libm-based bits the pre-SFU-tier code produced.
 */
void
softmaxRowExact(float *row, int64_t n)
{
    float mx = row[0];
    for (int64_t j = 1; j < n; ++j) {
        mx = std::max(mx, row[j]);
    }
    float sum = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
        row[j] = std::exp(row[j] - mx);
        sum += row[j];
    }
    const float inv = 1.0f / sum;
    for (int64_t j = 0; j < n; ++j) {
        row[j] *= inv;
    }
}

FOCUS_KERNEL_CLONES float
expBiasedSumVector(float *FOCUS_RESTRICT x, int64_t n, float bias)
{
    float s[8] = {};
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        for (int64_t e = 0; e < 8; ++e) {
            const float v = expfPoly(x[j + e] - bias);
            x[j + e] = v;
            s[e] += v;
        }
    }
    for (; j < n; ++j) {
        const float v = expfPoly(x[j] - bias);
        x[j] = v;
        s[0] += v;
    }
    return ((s[0] + s[1]) + (s[2] + s[3])) +
        ((s[4] + s[5]) + (s[6] + s[7]));
}

FOCUS_KERNEL_CLONES void
siluVector(float *FOCUS_RESTRICT x, int64_t n)
{
    for (int64_t i = 0; i < n; ++i) {
        x[i] = x[i] / (1.0f + expfPoly(-x[i]));
    }
}

FOCUS_KERNEL_CLONES void
geluVector(float *FOCUS_RESTRICT x, int64_t n)
{
    constexpr float c = 0.7978845608f; // sqrt(2/pi)
    for (int64_t i = 0; i < n; ++i) {
        const float v = x[i];
        const float y = c * (v + 0.044715f * v * v * v);
        // tanh(y) = 1 - 2 / (exp(2y) + 1); exact in infinite
        // precision, so accuracy tracks the polynomial expf.
        const float th = 1.0f - 2.0f / (expfPoly(2.0f * y) + 1.0f);
        x[i] = 0.5f * v * (1.0f + th);
    }
}

FOCUS_KERNEL_CLONES void
rmsNormRowVector(float *FOCUS_RESTRICT row, int64_t n,
                 const float *FOCUS_RESTRICT gain, float eps)
{
    float s[8] = {};
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        for (int64_t e = 0; e < 8; ++e) {
            s[e] += row[j + e] * row[j + e];
        }
    }
    for (; j < n; ++j) {
        s[0] += row[j] * row[j];
    }
    float ms = ((s[0] + s[1]) + (s[2] + s[3])) +
        ((s[4] + s[5]) + (s[6] + s[7]));
    ms /= static_cast<float>(n);
    const float inv = 1.0f / std::sqrt(ms + eps);
    if (gain != nullptr) {
        for (j = 0; j < n; ++j) {
            row[j] *= inv * gain[j];
        }
    } else {
        for (j = 0; j < n; ++j) {
            row[j] *= inv;
        }
    }
}

FOCUS_KERNEL_CLONES float
l2NormVector(const float *FOCUS_RESTRICT v, int64_t n)
{
    float s[8] = {};
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        for (int64_t e = 0; e < 8; ++e) {
            s[e] += v[j + e] * v[j + e];
        }
    }
    for (; j < n; ++j) {
        s[0] += v[j] * v[j];
    }
    return std::sqrt(((s[0] + s[1]) + (s[2] + s[3])) +
                     ((s[4] + s[5]) + (s[6] + s[7])));
}

/**
 * Candidate dot kernel for the similarity gather.  Unlike the
 * GEMM-tier dot primitives this uses an 8-wide lane split: the
 * vector backend carries no bit-exactness contract, and the 8-lane
 * shape maps 1:1 onto a ymm accumulator (a pinned 4-lane split — or
 * a multi-candidate variant — forces GCC 12 into permute-heavy
 * reductions that lose to scalar code).
 */
FOCUS_KERNEL_CLONES float
simDot1(const float *FOCUS_RESTRICT q, const float *FOCUS_RESTRICT b,
        int64_t n)
{
    float l[8] = {};
    int64_t p = 0;
    for (; p + 8 <= n; p += 8) {
        for (int64_t e = 0; e < 8; ++e) {
            l[e] += q[p + e] * b[p + e];
        }
    }
    for (; p < n; ++p) {
        l[0] += q[p] * b[p];
    }
    return ((l[0] + l[1]) + (l[2] + l[3])) +
        ((l[4] + l[5]) + (l[6] + l[7]));
}

/**
 * Fan independent rows of a (rows x cols) block across the pool when
 * the block is large enough to amortize the dispatch.  Each task owns
 * a disjoint row range and each row's result depends only on its own
 * data, so output is bit-identical at every thread count (a call
 * from inside a pool task executes inline on that worker).
 */
template <typename RowRangeFn>
void
forRowRanges(int64_t rows, int64_t cols, const RowRangeFn &fn)
{
    constexpr int64_t kRowsPerTask = 16;
    constexpr int64_t kParallelElemCut = 1 << 14;
    ThreadPool &pool = ThreadPool::global();
    const int64_t tasks = (rows + kRowsPerTask - 1) / kRowsPerTask;
    if (tasks > 1 && pool.threads() > 1 &&
        rows * cols >= kParallelElemCut) {
        pool.parallelFor(tasks, [&](int64_t ti) {
            const int64_t i0 = ti * kRowsPerTask;
            fn(i0, std::min(rows, i0 + kRowsPerTask));
        });
    } else {
        fn(0, rows);
    }
}

/**
 * Softmax counters, shared by the full-row and causal entry points.
 * Per-backend names freeze the math backend at first use; the backend
 * is a per-process knob in real runs.
 */
void
countSoftmaxRows(int64_t rows)
{
    if (!obs::countersEnabled()) {
        return;
    }
    static obs::Counter &calls =
        obs::MetricsRegistry::instance().schedCounter(
            std::string("kernels.softmax.") +
            mathBackendName(activeMathBackend()) + ".calls");
    static obs::Counter &row_total =
        obs::MetricsRegistry::instance().counter(
            std::string("kernels.softmax.") +
            mathBackendName(activeMathBackend()) + ".rows");
    calls.add(1);
    row_total.add(static_cast<uint64_t>(rows));
}

} // namespace

// -----------------------------------------------------------------
// Public backend controls
// -----------------------------------------------------------------

const char *
mathBackendName(MathBackend b)
{
    switch (b) {
      case MathBackend::Exact:
        return "exact";
      case MathBackend::Vector:
        return "vector";
    }
    return "?";
}

bool
parseMathBackend(const char *name, MathBackend &out)
{
    const std::string s(name != nullptr ? name : "");
    if (s == "exact") {
        out = MathBackend::Exact;
        return true;
    }
    if (s == "vector") {
        out = MathBackend::Vector;
        return true;
    }
    return false;
}

MathBackend
activeMathBackend()
{
    return g_math_backend.load(std::memory_order_relaxed);
}

void
setMathBackend(MathBackend b)
{
    g_math_backend.store(b, std::memory_order_relaxed);
}

// -----------------------------------------------------------------
// SFU tier entry points
// -----------------------------------------------------------------

void
expRowsF32(int64_t rows, int64_t cols, float *x, int64_t ld)
{
    if (rows <= 0 || cols <= 0) {
        return;
    }
    if (activeMathBackend() == MathBackend::Vector) {
        forRowRanges(rows, cols, [&](int64_t i0, int64_t i1) {
            for (int64_t i = i0; i < i1; ++i) {
                expRowVector(x + i * ld, cols);
            }
        });
        return;
    }
    forRowRanges(rows, cols, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            float *row = x + i * ld;
            for (int64_t j = 0; j < cols; ++j) {
                row[j] = std::exp(row[j]);
            }
        }
    });
}

void
softmaxRowsF32(int64_t rows, int64_t cols, float *x, int64_t ld)
{
    if (rows <= 0 || cols <= 0) {
        // Zero-column rows carry no probability mass: defined no-op,
        // matching the k=0 degenerate-shape rule of the GEMM tier.
        return;
    }
    countSoftmaxRows(rows);
    if (activeMathBackend() == MathBackend::Vector) {
        forRowRanges(rows, cols, [&](int64_t i0, int64_t i1) {
            for (int64_t i = i0; i < i1; ++i) {
                softmaxRowVector(x + i * ld, cols);
            }
        });
        return;
    }
    forRowRanges(rows, cols, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            softmaxRowExact(x + i * ld, cols);
        }
    });
}

void
softmaxCausalF32(int64_t rows, float *x, int64_t ld)
{
    if (rows <= 0) {
        return;
    }
    countSoftmaxRows(rows);
    constexpr float kMasked = -1e30f;
    if (activeMathBackend() == MathBackend::Vector) {
        forRowRanges(rows, rows, [&](int64_t i0, int64_t i1) {
            for (int64_t i = i0; i < i1; ++i) {
                float *row = x + i * ld;
                const int64_t live = i + 1;
                // The live prefix rounded up to whole 8-lane blocks,
                // or the full row once that would pass its trailing
                // partial block: either way every live term lands in
                // the lane the full-row pass gives it, and the masked
                // slots add exact zeros.
                int64_t width = (live + 7) & ~int64_t{7};
                if (width > rows) {
                    width = rows;
                }
                std::fill(row + live, row + width, kMasked);
                softmaxRowVector(row, width);
                std::fill(row + live, row + rows, 0.0f);
            }
        });
        return;
    }
    forRowRanges(rows, rows, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            float *row = x + i * ld;
            softmaxRowExact(row, i + 1);
            std::fill(row + i + 1, row + rows, 0.0f);
        }
    });
}

float
expBiasedSumF32(float *x, int64_t n, float bias)
{
    if (n <= 0) {
        return 0.0f;
    }
    if (activeMathBackend() == MathBackend::Vector) {
        return expBiasedSumVector(x, n, bias);
    }
    // Historical readout-logit loop: serial std::exp, serial sum.
    float sum = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
        x[j] = std::exp(x[j] - bias);
        sum += x[j];
    }
    return sum;
}

void
siluF32(float *x, int64_t n)
{
    if (n <= 0) {
        return;
    }
    if (activeMathBackend() == MathBackend::Vector) {
        siluVector(x, n);
        return;
    }
    for (int64_t i = 0; i < n; ++i) {
        x[i] = x[i] / (1.0f + std::exp(-x[i]));
    }
}

void
geluF32(float *x, int64_t n)
{
    if (n <= 0) {
        return;
    }
    if (activeMathBackend() == MathBackend::Vector) {
        geluVector(x, n);
        return;
    }
    constexpr float c = 0.7978845608f; // sqrt(2/pi)
    for (int64_t i = 0; i < n; ++i) {
        const float v = x[i];
        x[i] = 0.5f * v *
            (1.0f + std::tanh(c * (v + 0.044715f * v * v * v)));
    }
}

void
rmsNormRowsF32(int64_t rows, int64_t cols, float *x, int64_t ld,
               const float *gain, float eps)
{
    if (rows <= 0 || cols <= 0) {
        // A zero-width row has no mean square: defined no-op instead
        // of the historical 0/0 NaN fill.
        return;
    }
    if (activeMathBackend() == MathBackend::Vector) {
        forRowRanges(rows, cols, [&](int64_t i0, int64_t i1) {
            for (int64_t i = i0; i < i1; ++i) {
                rmsNormRowVector(x + i * ld, cols, gain, eps);
            }
        });
        return;
    }
    forRowRanges(rows, cols, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            float *row = x + i * ld;
            float ms = 0.0f;
            for (int64_t j = 0; j < cols; ++j) {
                ms += row[j] * row[j];
            }
            ms /= static_cast<float>(cols);
            const float inv = 1.0f / std::sqrt(ms + eps);
            for (int64_t j = 0; j < cols; ++j) {
                row[j] *= inv * (gain != nullptr ? gain[j] : 1.0f);
            }
        }
    });
}

void
l2NormRowsF32(const float *x, int64_t ld, int64_t rows, int64_t n,
              float *norms)
{
    if (rows <= 0) {
        return;
    }
    if (activeMathBackend() == MathBackend::Vector) {
        for (int64_t i = 0; i < rows; ++i) {
            norms[i] = l2NormVector(x + i * ld, n);
        }
        return;
    }
    for (int64_t i = 0; i < rows; ++i) {
        norms[i] = l2Norm(x + i * ld, n);
    }
}

void
simGatherF32(const float *key, float key_norm, const float *pack,
             int64_t ld, const float *norms, const int64_t *cand,
             int64_t count, int64_t n, float *sims)
{
    if (count <= 0) {
        return;
    }
    if (obs::countersEnabled()) {
        static obs::Counter &calls =
            obs::MetricsRegistry::instance().schedCounter(
                std::string("kernels.sim_gather.") +
                mathBackendName(activeMathBackend()) + ".calls");
        static obs::Counter &dots =
            obs::MetricsRegistry::instance().counter(
                std::string("kernels.sim_gather.") +
                mathBackendName(activeMathBackend()) + ".dots");
        calls.add(1);
        dots.add(static_cast<uint64_t>(count));
    }
    if (activeMathBackend() != MathBackend::Vector) {
        for (int64_t c = 0; c < count; ++c) {
            sims[c] = cosineSimilarityPrenorm(
                key, key_norm, pack + cand[c] * ld, norms[cand[c]], n);
        }
        return;
    }
    constexpr float tiny = 1e-12f;
    for (int64_t c = 0; c < count; ++c) {
        const float nb = norms[cand[c]];
        sims[c] = (key_norm < tiny || nb < tiny)
            ? 0.0f
            : simDot1(key, pack + cand[c] * ld, n) / (key_norm * nb);
    }
}

// -----------------------------------------------------------------
// Portable blocked GEMM
// -----------------------------------------------------------------

void
gemmF32(int64_t m, int64_t n, int64_t k, const float *a, int64_t lda,
        const float *b, int64_t ldb, float *c, int64_t ldc,
        bool fp16_inputs, const int64_t *a_rows, bool accumulate)
{
    if (m <= 0 || n <= 0) {
        return;
    }
    if (k <= 0) {
        // Empty reduction: a plain product is all-zero, an
        // accumulation is a no-op.
        if (!accumulate) {
            for (int64_t i = 0; i < m; ++i) {
                std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
            }
        }
        return;
    }
    // MAC totals are work (fixed by the problem shapes); invocation
    // counts are sched (call sites may batch or split differently).
    if (obs::countersEnabled()) {
        static obs::Counter &calls =
            obs::MetricsRegistry::instance().schedCounter(
                "kernels.gemm.portable.calls");
        static obs::Counter &macs =
            obs::MetricsRegistry::instance().counter(
                "kernels.gemm.portable.macs");
        calls.add(1);
        macs.add(static_cast<uint64_t>(m) *
                 static_cast<uint64_t>(n) * static_cast<uint64_t>(k));
    }
    static thread_local std::vector<float> bpack_tls;
    const int64_t panels = (n + kNr - 1) / kNr;
    bpack_tls.resize(static_cast<size_t>(panels * kNr * k));
    float *bpack = bpack_tls.data();
    packB(b, ldb, k, n, fp16_inputs, bpack);

    const int64_t mblocks = (m + kMc - 1) / kMc;
    auto run_block = [&](int64_t bi) {
        const int64_t i0 = bi * kMc;
        const int64_t mb = std::min(kMc, m - i0);
        gemmBlock(i0, mb, n, k, a, lda, a_rows, bpack, c, ldc,
                  fp16_inputs, accumulate);
    };

    // Fan M blocks across the pool when the product is big enough to
    // amortize the dispatch.  Each block writes a disjoint C row
    // range, so results are bit-identical at every thread count; a
    // call from inside a pool task (e.g. under runFunctional's
    // per-sample fan-out) executes inline on that worker.
    constexpr int64_t kParallelFlopCut = 1 << 21;
    ThreadPool &pool = ThreadPool::global();
    if (mblocks > 1 && pool.threads() > 1 &&
        m * n * k >= kParallelFlopCut) {
        pool.parallelFor(mblocks, run_block);
    } else {
        for (int64_t bi = 0; bi < mblocks; ++bi) {
            run_block(bi);
        }
    }
}

void
dotRowsScaled(const float *q, const float *b, int64_t ldb, int64_t rows,
              int64_t k, float scale, float *out)
{
    int64_t j = 0;
    for (; j + 4 <= rows; j += 4) {
        const float *base = b + j * ldb;
        dot4(q, base, base + ldb, base + 2 * ldb, base + 3 * ldb, k,
             scale, out + j);
    }
    for (; j < rows; ++j) {
        out[j] = dot1(q, b + j * ldb, k) * scale;
    }
}

void
qkScoresCausalF32(const float *q, int64_t ldq, const float *keys,
                  int64_t ldk, int64_t rows, int64_t k, float scale,
                  float *out, int64_t ldo)
{
    if (rows <= 0) {
        return;
    }
    // Transposed key panel, padded so every 8- or 16-key block of the
    // last row group reads inside it (pad columns are zero and never
    // reach an output).
    static thread_local std::vector<float> panel;
    const int64_t ldt = (rows + kQkPad - 1) / kQkPad * kQkPad;
    panel.resize(static_cast<size_t>(k * ldt));
    float *kt = panel.data();
    for (int64_t p = 0; p < k; ++p) {
        std::fill(kt + p * ldt + rows, kt + (p + 1) * ldt, 0.0f);
    }
    for (int64_t j = 0; j < rows; ++j) {
        const float *krow = keys + j * ldk;
        for (int64_t p = 0; p < k; ++p) {
            kt[p * ldt + j] = krow[p];
        }
    }
    qkScoresPanel(q, ldq, kt, ldt, keys, ldk, rows, k, scale, out, ldo);
}

FOCUS_KERNEL_CLONES void
pvCausalF32(int64_t m, int64_t n, const float *p, int64_t ldp,
            const int64_t *rowmap, const float *v, int64_t ldv,
            float *out, int64_t ldo)
{
    const int64_t full = n / kPvCols * kPvCols;
    int64_t r = 0;
    for (; r + 2 <= m; r += 2) {
        const int64_t src0 = rowmap ? rowmap[r] : r;
        const int64_t src1 = rowmap ? rowmap[r + 1] : r + 1;
        const float *prow0 = p + src0 * ldp;
        const float *prow1 = p + src1 * ldp;
        float *orow0 = out + r * ldo;
        float *orow1 = orow0 + ldo;
        const int64_t shared = std::min(src0, src1) + 1;
        for (int64_t c0 = 0; c0 < full; c0 += kPvCols) {
            pvTile2(prow0, prow1, shared, v + c0, ldv, orow0 + c0,
                    orow1 + c0);
            pvAccumulate(prow0, shared, src0 + 1, v, ldv, orow0, c0,
                         c0 + kPvCols);
            pvAccumulate(prow1, shared, src1 + 1, v, ldv, orow1, c0,
                         c0 + kPvCols);
        }
        if (full < n) {
            pvRow(prow0, src0 + 1, v, ldv, orow0, full, n);
            pvRow(prow1, src1 + 1, v, ldv, orow1, full, n);
        }
    }
    if (r < m) {
        const int64_t src = rowmap ? rowmap[r] : r;
        pvRow(p + src * ldp, src + 1, v, ldv, out + r * ldo, 0, n);
    }
}

// -----------------------------------------------------------------
// INT8 kernel
// -----------------------------------------------------------------

FOCUS_KERNEL_CLONES void
gemmInt8S32(int64_t m, int64_t n, int64_t k, const int8_t *a,
            const float *a_scales, const int8_t *bt,
            const float *b_scales, float *c, int64_t ldc)
{
    for (int64_t i = 0; i < m; ++i) {
        const int8_t *FOCUS_RESTRICT arow = a + i * k;
        const float ascale = a_scales[i];
        float *crow = c + i * ldc;
        int64_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const int8_t *FOCUS_RESTRICT b0 = bt + j * k;
            const int8_t *FOCUS_RESTRICT b1 = b0 + k;
            const int8_t *FOCUS_RESTRICT b2 = b1 + k;
            const int8_t *FOCUS_RESTRICT b3 = b2 + k;
            int32_t acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
            for (int64_t p = 0; p < k; ++p) {
                const int32_t av = arow[p];
                acc0 += av * b0[p];
                acc1 += av * b1[p];
                acc2 += av * b2[p];
                acc3 += av * b3[p];
            }
            crow[j] = static_cast<float>(acc0) * ascale * b_scales[j];
            crow[j + 1] =
                static_cast<float>(acc1) * ascale * b_scales[j + 1];
            crow[j + 2] =
                static_cast<float>(acc2) * ascale * b_scales[j + 2];
            crow[j + 3] =
                static_cast<float>(acc3) * ascale * b_scales[j + 3];
        }
        for (; j < n; ++j) {
            const int8_t *FOCUS_RESTRICT brow = bt + j * k;
            int32_t acc = 0;
            for (int64_t p = 0; p < k; ++p) {
                acc += static_cast<int32_t>(arow[p]) * brow[p];
            }
            crow[j] = static_cast<float>(acc) * ascale * b_scales[j];
        }
    }
}

} // namespace kernels
} // namespace focus
