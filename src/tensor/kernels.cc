#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/half.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/qk_tile.h"

// Function multi-versioning for the hot FP kernels: on x86-64 the
// loader picks, by CPUID, the x86-64-v4 clone (AVX-512) or the
// x86-64-v3 clone (AVX2 + FMA) where the CPU has it and the baseline
// SSE2 clone otherwise — no -march flags, so the binary stays
// portable.  The clones compute the same bits: the build never
// contracts a mul+add (-ffp-contract=off), and every fused
// multiply-add is a std::fma in the source, which the v3 and v4 clones
// emit as one FMA instruction and the baseline clone as a call to
// libm's correctly rounded fmaf (docs/KERNELS.md).  The QK^T rows
// (qkScoresRows) are three target() versions of one function instead,
// one per level, because only the v4 one takes the wide tile; the
// loader's resolver picks among them by the same levels.  cloneName()
// answers from a per-level set of the same kind (levelName), so it
// names the body the loader picked; that set must list the same
// levels as this attribute.  TSan
// builds compile one body: its runtime is not up yet when the ifunc
// resolvers run.
#ifndef __has_attribute
#define __has_attribute(x) 0
#endif
#if defined(__x86_64__) && __has_attribute(target_clones) &&          \
    defined(__linux__) && !defined(__SANITIZE_THREAD__)
#define FOCUS_KERNEL_CLONES                                           \
    __attribute__((target_clones("default", "arch=x86-64-v3",         \
                                 "arch=x86-64-v4")))
#define FOCUS_HAS_KERNEL_CLONES 1
#else
#define FOCUS_KERNEL_CLONES
#define FOCUS_HAS_KERNEL_CLONES 0
#endif

// F16C activation rounding (roundFp16F32): compiled for x86-64 with
// its own target attribute and chosen by one CPU-feature check at run
// time — no ifunc, so sanitizer builds run it too.  Other targets
// compile only the fp16Round loop.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define FOCUS_F16C_ROUNDING 1
#else
#define FOCUS_F16C_ROUNDING 0
#endif

namespace focus
{
namespace kernels
{

using namespace detail;

namespace
{

/**
 * The level of the bodies this binary runs: one target() version per
 * level of FOCUS_KERNEL_CLONES, as qkScoresRows has, so the loader's
 * resolver picks this name as it picks the kernels' bodies.  A copy
 * built with a level removed deletes that level's version here too.
 */
#if FOCUS_HAS_KERNEL_CLONES
__attribute__((target("default"))) const char *
levelName()
{
    return "baseline";
}

__attribute__((target("arch=x86-64-v3"))) const char *
levelName()
{
    return "x86-64-v3";
}

__attribute__((target("arch=x86-64-v4"))) const char *
levelName()
{
    return "x86-64-v4";
}
#else
const char *
levelName()
{
    return "single body";
}
#endif

} // namespace

const char *
cloneName()
{
    return levelName();
}

namespace
{

// -----------------------------------------------------------------
// The register tile and the single-row loop
//
// Shared by the GEMM and the causal P*V.  Each output element has one
// accumulator that starts at +0 and takes one std::fma per depth step
// in ascending order, whichever of the two runs it, so a tile and the
// single-row loop agree bit for bit with each other and with
// tests/reference/gemm.h.
// -----------------------------------------------------------------

constexpr int64_t kNrBlocks = kNr / kLanes; ///< 8-lane blocks per tile row

/**
 * One row's accumulator blocks out to memory.  Rows are stored one at
 * a time: stores interleaved across rows make GCC 12 add a run-time
 * check for overlapping rows (row stride < kNr).
 */
FOCUS_ALWAYS_INLINE void
storeRow(const float (&acc)[kNrBlocks][kLanes], float *FOCUS_RESTRICT o)
{
    for (int64_t b = 0; b < kNrBlocks; ++b) {
        for (int64_t e = 0; e < kLanes; ++e) {
            o[b * kLanes + e] = acc[b][e];
        }
    }
}

/**
 * kMr x kNr tile: o_r[c] = sum_{p < depth} x_r[p] * b[p*ldb + c] for
 * rows r in [0, 4) and c in [0, kNr).  The x_r are A rows (or P rows)
 * read in place; b is a packed B panel (ldb = kNr) or V in place.
 * Each depth step is four broadcasts times kNr B values: eight zmm
 * FMAs in the x86-64-v4 clone, enough independent chains for two FMA
 * ports at four cycles of latency.  Each row keeps its own array of
 * 8-lane blocks: with one acc[r][b][e] array GCC 12 interchanges the
 * loops and stores the accumulators at every depth step.
 */
FOCUS_ALWAYS_INLINE void
tile4x32(const float *FOCUS_RESTRICT x0, const float *FOCUS_RESTRICT x1,
         const float *FOCUS_RESTRICT x2, const float *FOCUS_RESTRICT x3,
         int64_t depth, const float *FOCUS_RESTRICT b, int64_t ldb,
         float *FOCUS_RESTRICT o0, float *FOCUS_RESTRICT o1,
         float *FOCUS_RESTRICT o2, float *FOCUS_RESTRICT o3)
{
    float a0[kNrBlocks][kLanes] = {}, a1[kNrBlocks][kLanes] = {};
    float a2[kNrBlocks][kLanes] = {}, a3[kNrBlocks][kLanes] = {};
    for (int64_t p = 0; p < depth; ++p) {
        const float s0 = x0[p], s1 = x1[p], s2 = x2[p], s3 = x3[p];
        const float *FOCUS_RESTRICT brow = b + p * ldb;
        for (int64_t blk = 0; blk < kNrBlocks; ++blk) {
            for (int64_t e = 0; e < kLanes; ++e) {
                const float bv = brow[blk * kLanes + e];
                a0[blk][e] = std::fma(s0, bv, a0[blk][e]);
                a1[blk][e] = std::fma(s1, bv, a1[blk][e]);
                a2[blk][e] = std::fma(s2, bv, a2[blk][e]);
                a3[blk][e] = std::fma(s3, bv, a3[blk][e]);
            }
        }
    }
    storeRow(a0, o0);
    storeRow(a1, o1);
    storeRow(a2, o2);
    storeRow(a3, o3);
}

/** orow[c] += x[j] * b[j][c] for j in [j0, j1), c in [c0, c1). */
FOCUS_ALWAYS_INLINE void
pvAccumulate(const float *FOCUS_RESTRICT x, int64_t j0, int64_t j1,
             const float *FOCUS_RESTRICT b, int64_t ldb,
             float *FOCUS_RESTRICT orow, int64_t c0, int64_t c1)
{
    for (int64_t j = j0; j < j1; ++j) {
        const float xj = x[j];
        const float *FOCUS_RESTRICT brow = b + j * ldb;
        for (int64_t c = c0; c < c1; ++c) {
            orow[c] = std::fma(xj, brow[c], orow[c]);
        }
    }
}

/**
 * The single-row loop: orow[c] = sum_{j < depth} x[j] * b[j][c] over
 * columns [c0, c1), accumulated in memory.  Runs the rows and columns
 * no full tile covers.
 */
FOCUS_ALWAYS_INLINE void
pvRow(const float *FOCUS_RESTRICT x, int64_t depth,
      const float *FOCUS_RESTRICT b, int64_t ldb,
      float *FOCUS_RESTRICT orow, int64_t c0, int64_t c1)
{
    for (int64_t c = c0; c < c1; ++c) {
        orow[c] = 0.0f;
    }
    pvAccumulate(x, 0, depth, b, ldb, orow, c0, c1);
}

// -----------------------------------------------------------------
// GEMM
//
// B is packed once per gemm call into its full column panels of kNr:
// panel jp holds, for each depth step p, the kNr values
// b[p][jp*kNr .. +kNr).  A is read in place.
// -----------------------------------------------------------------

void
packB(const float *b, int64_t ldb, int64_t k, int64_t n,
      float *FOCUS_RESTRICT dst)
{
    const int64_t full = n / kNr * kNr;
    const int64_t panel_stride = k * kNr;
    // Row-major pass over B: each source row is read once
    // sequentially and scattered into the per-panel slots for depth
    // step p.
    for (int64_t p = 0; p < k; ++p) {
        const float *FOCUS_RESTRICT src = b + p * ldb;
        float *out = dst + p * kNr;
        for (int64_t j0 = 0; j0 < full; j0 += kNr, out += panel_stride) {
            for (int64_t j = 0; j < kNr; ++j) {
                out[j] = src[j0 + j];
            }
        }
    }
}

/**
 * One M block, C rows [i0, i0+mb): panels outer and 4-row groups
 * inner, so a panel slice stays in L1 while every group of the block
 * reads it.  Rows past the last group and columns past the last full
 * panel run the single-row loop on unpacked B.  Writes only its own C
 * rows, so concurrent blocks never overlap.
 */
FOCUS_KERNEL_CLONES void
gemmBlock(int64_t i0, int64_t mb, int64_t n, int64_t k, const float *a,
          int64_t lda, const float *b, int64_t ldb, const float *bpack,
          float *c, int64_t ldc)
{
    const int64_t rows = mb / kMr * kMr;
    const int64_t cols = n / kNr * kNr;
    for (int64_t j0 = 0; j0 < cols; j0 += kNr) {
        const float *bp = bpack + j0 * k;
        for (int64_t i = i0; i < i0 + rows; i += kMr) {
            const float *x = a + i * lda;
            float *o = c + i * ldc + j0;
            tile4x32(x, x + lda, x + 2 * lda, x + 3 * lda, k, bp, kNr, o,
                     o + ldc, o + 2 * ldc, o + 3 * ldc);
        }
    }
    for (int64_t i = i0; i < i0 + mb; ++i) {
        const int64_t c0 = i < i0 + rows ? cols : 0;
        if (c0 < n) {
            pvRow(a + i * lda, k, b, ldb, c + i * ldc, c0, n);
        }
    }
}

// -----------------------------------------------------------------
// Dot kernels and the transposed QK^T tiles
//
// Plain mul + add: every product rounds before it accumulates, so
// dot4, the QK^T tiles, dot1 and ops.h `dot` give the same bits for
// the same lane split.
// -----------------------------------------------------------------

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

/**
 * qkScoresRowsF32's body, one version per x86-64 level (qk_tile.h).
 * The x86-64-v4 version scores four rows at a time with qkTile4x16:
 * sixteen zmm accumulators, half its register file.  The v3 and
 * baseline versions keep one row per 16-key block: there the same
 * tile is 32 ymm or 64 xmm accumulators and spills every step (2.9-3.1
 * against 10.8-11.8 GMAC/s in v3-only builds; docs/KERNELS.md).  A
 * build without clones compiles one version for its own ISA.
 */
#if FOCUS_HAS_KERNEL_CLONES
__attribute__((target("default"))) void
qkScoresRows(const float *q, int64_t ldq, const float *keys, int64_t ldk,
             const float *kt, int64_t ldt, const int64_t *src, int64_t n,
             int64_t k, float scale, float *out, int64_t ldo)
{
    qkScoresRowsBody<1>(q, ldq, keys, ldk, kt, ldt, src, n, k, scale, out,
                        ldo);
}

__attribute__((target("arch=x86-64-v3"))) void
qkScoresRows(const float *q, int64_t ldq, const float *keys, int64_t ldk,
             const float *kt, int64_t ldt, const int64_t *src, int64_t n,
             int64_t k, float scale, float *out, int64_t ldo)
{
    qkScoresRowsBody<1>(q, ldq, keys, ldk, kt, ldt, src, n, k, scale, out,
                        ldo);
}

__attribute__((target("arch=x86-64-v4"))) void
qkScoresRows(const float *q, int64_t ldq, const float *keys, int64_t ldk,
             const float *kt, int64_t ldt, const int64_t *src, int64_t n,
             int64_t k, float scale, float *out, int64_t ldo)
{
    qkScoresRowsBody<4>(q, ldq, keys, ldk, kt, ldt, src, n, k, scale, out,
                        ldo);
}
#else
void
qkScoresRows(const float *q, int64_t ldq, const float *keys, int64_t ldk,
             const float *kt, int64_t ldt, const int64_t *src, int64_t n,
             int64_t k, float scale, float *out, int64_t ldo)
{
#ifdef __AVX512F__
    qkScoresRowsBody<4>(q, ldq, keys, ldk, kt, ldt, src, n, k, scale, out,
                        ldo);
#else
    qkScoresRowsBody<1>(q, ldq, keys, ldk, kt, ldt, src, n, k, scale, out,
                        ldo);
#endif
}
#endif

/** qkScoresRowsF32 over the consecutive query rows [i0, i1). */
void
qkScoresRange(const float *q, int64_t ldq, const float *kt, int64_t ldt,
              const float *keys, int64_t ldk, int64_t i0, int64_t i1,
              int64_t k, float scale, float *out, int64_t ldo)
{
    int64_t src[kQkGroup];
    for (int64_t g0 = i0; g0 < i1; g0 += kQkGroup) {
        const int64_t n = std::min(kQkGroup, i1 - g0);
        for (int64_t r = 0; r < n; ++r) {
            src[r] = g0 + r;
        }
        qkScoresRowsF32(q, ldq, keys, ldk, kt, ldt, src, n, k, scale,
                        out + (g0 - i0) * ldo, ldo);
    }
}

/**
 * Output rows per block of causalAttentionF32.  A multiple of kMr, so
 * every P*V row group of a full block is a full tile.
 */
constexpr int64_t kStreamBlock = 16;

// -----------------------------------------------------------------
// SFU tier internals
//
// The transcendental core is a branch-free polynomial expf (Cephes
// 32-bit constants): clamp to the finite range, split x = n*ln2 + r
// with round-to-nearest via the 1.5*2^23 trick, evaluate a degree-6
// polynomial in r, scale by 2^n through the exponent bits.  NaN
// inputs survive the clamp via the final select; inputs below the
// clamp range (including -inf) flush to exactly 0 — see the comment
// at the flush blend — and +inf saturates to exp(hi), large but
// finite.  The helper is a plain inline function so each
// target_clones caller inlines it and vectorizes it with its own ISA
// (blends for the selects, cvtps2dq for the exponent cast).
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
    // x / ln2, plus 1.5*2^23: rounds to the nearest integer.
    const float t = std::fma(xc, 1.44269504088896341f, 12582912.0f);
    const float n = t - 12582912.0f;
    float r = std::fma(-n, 0.693359375f, xc); // ln2 high part
    r = std::fma(n, 2.12194440e-4f, r);       // ln2 low part
    float p = 1.9875691500e-4f;
    p = std::fma(p, r, 1.3981999507e-3f);
    p = std::fma(p, r, 8.3334519073e-3f);
    p = std::fma(p, r, 4.1665795894e-2f);
    p = std::fma(p, r, 1.6666665459e-1f);
    p = std::fma(p, r, 5.0000001201e-1f);
    p = std::fma(p * r, r, r) + 1.0f;
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

/**
 * Fused max/exp/normalize with 8-lane reductions.  The lane maxima are
 * one Vec8: as a float[8] array GCC 12 kept the select
 * `v > m ? v : m` scalar in every clone, a compare and a cmov per
 * element.  The vector select picks per lane exactly as the scalar
 * one does, NaN included.
 */
FOCUS_KERNEL_CLONES void
softmaxRowVector(float *FOCUS_RESTRICT row, int64_t n)
{
    constexpr float ninf = -std::numeric_limits<float>::infinity();
    Vec8 m = {ninf, ninf, ninf, ninf, ninf, ninf, ninf, ninf};
    Vec8 x;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        std::memcpy(&x, row + j, sizeof(x));
        m = x > m ? x : m;
    }
    float mx = m[0];
    for (; j < n; ++j) {
        mx = row[j] > mx ? row[j] : mx;
    }
    for (int64_t e = 1; e < 8; ++e) {
        mx = m[e] > mx ? m[e] : mx;
    }
    // The exp pass runs 16 elements per step (one zmm in the v4
    // clone), then adds their low and then their high 8 to the one
    // Vec8 sum, so lane e still sums j = e, e+8, ... in ascending
    // order.  The halves are read back from the row: through a
    // 16-float temporary the v3 clone paid stack round trips
    // (BM_SoftmaxCausal 0.86-0.90x of the 8-wide pass in v3-only
    // builds, against 0.98-1.00x this way).
    Vec8 s = {}, lo, hi;
    j = 0;
    for (; j + 2 * kLanes <= n; j += 2 * kLanes) {
        for (int64_t e = 0; e < 2 * kLanes; ++e) {
            row[j + e] = expfPoly(row[j + e] - mx);
        }
        std::memcpy(&lo, row + j, sizeof(lo));
        std::memcpy(&hi, row + j + kLanes, sizeof(hi));
        s += lo;
        s += hi;
    }
    if (j + kLanes <= n) {
        for (int64_t e = 0; e < kLanes; ++e) {
            row[j + e] = expfPoly(row[j + e] - mx);
        }
        std::memcpy(&lo, row + j, sizeof(lo));
        s += lo;
        j += kLanes;
    }
    float s0 = s[0];
    for (; j < n; ++j) {
        const float t = expfPoly(row[j] - mx);
        row[j] = t;
        s0 += t;
    }
    const float sum =
        ((s0 + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
    const float inv = 1.0f / sum;
    for (j = 0; j < n; ++j) {
        row[j] *= inv;
    }
}

/**
 * The 8-lane sums of rmsNormRowVector, l2NormVector and simDot1 are
 * one Vec8 updated by a per-lane std::fma: as a float[8] array GCC 12
 * kept the update scalar, eight vfmadd231ss per block.
 */
FOCUS_KERNEL_CLONES void
rmsNormRowVector(float *FOCUS_RESTRICT row, int64_t n,
                 const float *FOCUS_RESTRICT gain, float eps)
{
    Vec8 s = {}, x;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        std::memcpy(&x, row + j, sizeof(x));
        for (int64_t e = 0; e < 8; ++e) {
            s[e] = std::fma(x[e], x[e], s[e]);
        }
    }
    float s0 = s[0];
    for (; j < n; ++j) {
        s0 += row[j] * row[j];
    }
    float ms = ((s0 + s[1]) + (s[2] + s[3])) +
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
    Vec8 s = {}, x;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        std::memcpy(&x, v + j, sizeof(x));
        for (int64_t e = 0; e < 8; ++e) {
            s[e] = std::fma(x[e], x[e], s[e]);
        }
    }
    float s0 = s[0];
    for (; j < n; ++j) {
        s0 += v[j] * v[j];
    }
    return std::sqrt(((s0 + s[1]) + (s[2] + s[3])) +
                     ((s[4] + s[5]) + (s[6] + s[7])));
}

/**
 * Candidate dot kernel for the similarity gather.  Unlike the
 * GEMM-tier dot primitives this uses an 8-wide lane split with fused
 * lane updates: the gather need not match ops.h `dot`, and a 4-lane
 * split — or a multi-candidate variant — forces GCC 12 into
 * permute-heavy reductions that lose to scalar code.
 */
FOCUS_KERNEL_CLONES float
simDot1(const float *FOCUS_RESTRICT q, const float *FOCUS_RESTRICT b,
        int64_t n)
{
    Vec8 l = {}, qv, bv;
    int64_t p = 0;
    for (; p + 8 <= n; p += 8) {
        std::memcpy(&qv, q + p, sizeof(qv));
        std::memcpy(&bv, b + p, sizeof(bv));
        for (int64_t e = 0; e < 8; ++e) {
            l[e] = std::fma(qv[e], bv[e], l[e]);
        }
    }
    float l0 = l[0];
    for (; p < n; ++p) {
        l0 += q[p] * b[p];
    }
    return ((l0 + l[1]) + (l[2] + l[3])) +
        ((l[4] + l[5]) + (l[6] + l[7]));
}

/**
 * Fan independent rows of a (rows x cols) block across the pool when
 * the block is large enough to amortize the dispatch.  Each task owns
 * a disjoint row range and each row's result depends only on its own
 * data, so output is bit-identical at every thread count and
 * whichever thread runs a range (idle workers join the call even from
 * inside a pool task).
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

#if FOCUS_F16C_ROUNDING
/**
 * The 8-lane body of roundFp16F32: vcvtps2ph with round-to-nearest-
 * even, then the exact widening back.  Returns how many leading
 * elements it rounded (n rounded down to a multiple of 8).
 */
__attribute__((target("avx,f16c"))) int64_t
roundFp16F16c(float *x, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i h = _mm256_cvtps_ph(
            _mm256_loadu_ps(x + i),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        _mm256_storeu_ps(x + i, _mm256_cvtph_ps(h));
    }
    return i;
}

bool
cpuHasF16c()
{
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx") &&
            __builtin_cpu_supports("f16c");
    }();
    return has;
}
#endif

/** Softmax counters, shared by the full-row and causal entry points. */
void
countSoftmaxRows(int64_t rows)
{
    if (!obs::countersEnabled()) {
        return;
    }
    static obs::Counter &calls =
        obs::MetricsRegistry::instance().schedCounter(
            "kernels.softmax.calls");
    static obs::Counter &row_total =
        obs::MetricsRegistry::instance().counter("kernels.softmax.rows");
    calls.add(1);
    row_total.add(static_cast<uint64_t>(rows));
}

} // namespace

// -----------------------------------------------------------------
// SFU tier entry points
// -----------------------------------------------------------------

void
softmaxRowsF32(int64_t rows, int64_t cols, float *x, int64_t ld)
{
    if (rows <= 0 || cols <= 0) {
        // Zero-column rows carry no probability mass: defined no-op,
        // matching the k=0 degenerate-shape rule of the GEMM tier.
        return;
    }
    countSoftmaxRows(rows);
    forRowRanges(rows, cols, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            softmaxRowVector(x + i * ld, cols);
        }
    });
}

void
softmaxCausalRowF32(float *row, int64_t i, int64_t rows)
{
    constexpr float kMasked = -1e30f;
    const int64_t live = i + 1;
    // The live prefix rounded up to whole 8-lane blocks, or the full
    // row once that would pass its trailing partial block: either way
    // every live term lands in the lane the full-row pass gives it,
    // and the masked slots add exact zeros.
    const int64_t width = std::min((live + 7) & ~int64_t{7}, rows);
    std::fill(row + live, row + width, kMasked);
    softmaxRowVector(row, width);
}

void
softmaxCausalF32(int64_t rows, float *x, int64_t ld)
{
    if (rows <= 0) {
        return;
    }
    countSoftmaxRows(rows);
    forRowRanges(rows, rows, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            float *row = x + i * ld;
            softmaxCausalRowF32(row, i, rows);
            std::fill(row + i + 1, row + rows, 0.0f);
        }
    });
}

FOCUS_KERNEL_CLONES float
expBiasedSumF32(float *FOCUS_RESTRICT x, int64_t n, float bias)
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
swigluF32(float *FOCUS_RESTRICT gate, const float *FOCUS_RESTRICT up,
          int64_t n)
{
    for (int64_t i = 0; i < n; ++i) {
        const float g = gate[i];
        gate[i] = g / (1.0f + expfPoly(-g)) * up[i];
    }
}

void
rmsNormRowsF32(int64_t rows, int64_t cols, float *x, int64_t ld,
               const float *gain, float eps)
{
    if (rows <= 0 || cols <= 0) {
        // A zero-width row has no mean square: defined no-op instead
        // of a 0/0 NaN fill.
        return;
    }
    forRowRanges(rows, cols, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            rmsNormRowVector(x + i * ld, cols, gain, eps);
        }
    });
}

void
l2NormRowsF32(const float *x, int64_t ld, int64_t rows, int64_t n,
              float *norms)
{
    for (int64_t i = 0; i < rows; ++i) {
        norms[i] = l2NormVector(x + i * ld, n);
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
                "kernels.sim_gather.calls");
        static obs::Counter &dots =
            obs::MetricsRegistry::instance().counter(
                "kernels.sim_gather.dots");
        calls.add(1);
        dots.add(static_cast<uint64_t>(count));
    }
    constexpr float tiny = 1e-12f;
    for (int64_t c = 0; c < count; ++c) {
        const float nb = norms[cand[c]];
        sims[c] = (key_norm < tiny || nb < tiny)
            ? 0.0f
            : simDot1(key, pack + cand[c] * ld, n) / (key_norm * nb);
    }
}

void
roundFp16F32(float *x, int64_t n)
{
    int64_t i = 0;
#if FOCUS_F16C_ROUNDING
    if (cpuHasF16c()) {
        i = roundFp16F16c(x, n);
    }
#endif
    for (; i < n; ++i) {
        x[i] = fp16Round(x[i]);
    }
}

// -----------------------------------------------------------------
// Portable blocked GEMM
// -----------------------------------------------------------------

void
gemmF32(int64_t m, int64_t n, int64_t k, const float *a, int64_t lda,
        const float *b, int64_t ldb, float *c, int64_t ldc)
{
    if (m <= 0 || n <= 0) {
        return;
    }
    if (k <= 0) {
        // Empty reduction: the product is all-zero.
        for (int64_t i = 0; i < m; ++i) {
            std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
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
    bpack_tls.resize(static_cast<size_t>(n / kNr * kNr * k));
    float *bpack = bpack_tls.data();
    packB(b, ldb, k, n, bpack);

    const int64_t mblocks = (m + kMc - 1) / kMc;
    auto run_block = [&](int64_t bi) {
        const int64_t i0 = bi * kMc;
        const int64_t mb = std::min(kMc, m - i0);
        gemmBlock(i0, mb, n, k, a, lda, b, ldb, bpack, c, ldc);
    };

    // Fan M blocks across the pool when the product is big enough to
    // amortize the dispatch.  Each block writes a disjoint C row
    // range, so results are bit-identical at every thread count.
    // Idle workers join the call even from inside a pool task (e.g.
    // under runFunctional's per-sample fan-out) and read this
    // thread's bpack_tls: the pool never runs another job's indices
    // on a caller waiting at its join, so nothing repacks it first.
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

FOCUS_KERNEL_CLONES void
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

int64_t
keyPanelStride(int64_t rows)
{
    return (rows + kQkPad - 1) / kQkPad * kQkPad;
}

void
packKeyPanelF32(const float *keys, int64_t ldk, int64_t rows, int64_t k,
                float *kt)
{
    const int64_t ldt = keyPanelStride(rows);
    for (int64_t p = 0; p < k; ++p) {
        std::fill(kt + p * ldt + rows, kt + (p + 1) * ldt, 0.0f);
    }
    for (int64_t j = 0; j < rows; ++j) {
        const float *krow = keys + j * ldk;
        for (int64_t p = 0; p < k; ++p) {
            kt[p * ldt + j] = krow[p];
        }
    }
}

void
qkScoresRowsF32(const float *q, int64_t ldq, const float *keys,
                int64_t ldk, const float *kt, int64_t ldt,
                const int64_t *src, int64_t n, int64_t k, float scale,
                float *out, int64_t ldo)
{
    qkScoresRows(q, ldq, keys, ldk, kt, ldt, src, n, k, scale, out, ldo);
}

void
qkScoresCausalF32(const float *q, int64_t ldq, const float *keys,
                  int64_t ldk, int64_t rows, int64_t k, float scale,
                  float *out, int64_t ldo)
{
    if (rows <= 0) {
        return;
    }
    static thread_local std::vector<float> panel;
    const int64_t ldt = keyPanelStride(rows);
    panel.resize(static_cast<size_t>(k * ldt));
    packKeyPanelF32(keys, ldk, rows, k, panel.data());
    qkScoresRange(q, ldq, panel.data(), ldt, keys, ldk, 0, rows, k,
                  scale, out, ldo);
}

FOCUS_KERNEL_CLONES void
pvCausalRowsF32(int64_t m, int64_t n, const float *const *prows,
                const int64_t *src, const float *v, int64_t ldv,
                float *out, int64_t ldo)
{
    const int64_t rows = m / kMr * kMr;
    const int64_t cols = n / kNr * kNr;
    for (int64_t r = 0; r < rows; r += kMr) {
        const float *const *x = prows + r;
        float *o = out + r * ldo;
        const int64_t shared =
            std::min({src[r], src[r + 1], src[r + 2], src[r + 3]}) + 1;
        for (int64_t c0 = 0; c0 < cols; c0 += kNr) {
            tile4x32(x[0], x[1], x[2], x[3], shared, v + c0, ldv, o + c0,
                     o + ldo + c0, o + 2 * ldo + c0, o + 3 * ldo + c0);
            for (int64_t q = 0; q < kMr; ++q) {
                pvAccumulate(x[q], shared, src[r + q] + 1, v, ldv,
                             o + q * ldo, c0, c0 + kNr);
            }
        }
    }
    for (int64_t r = 0; r < m; ++r) {
        const int64_t c0 = r < rows ? cols : 0;
        if (c0 < n) {
            pvRow(prows[r], src[r] + 1, v, ldv, out + r * ldo, c0, n);
        }
    }
}

void
pvCausalF32(int64_t m, int64_t n, const float *p, int64_t ldp,
            const int64_t *rowmap, const float *v, int64_t ldv,
            float *out, int64_t ldo)
{
    // Row pointers a chunk at a time, a multiple of kMr so every row
    // group of a full chunk is a full tile.
    constexpr int64_t kChunk = 64;
    const float *prows[kChunk];
    int64_t src[kChunk];
    for (int64_t r0 = 0; r0 < m; r0 += kChunk) {
        const int64_t mc = std::min(kChunk, m - r0);
        for (int64_t r = 0; r < mc; ++r) {
            src[r] = rowmap != nullptr ? rowmap[r0 + r] : r0 + r;
            prows[r] = p + src[r] * ldp;
        }
        pvCausalRowsF32(mc, n, prows, src, v, ldv, out + r0 * ldo, ldo);
    }
}

// -----------------------------------------------------------------
// Streamed multi-head causal attention
// -----------------------------------------------------------------

int64_t
keyPanelsSize(const CausalHeads &a)
{
    return a.heads * a.hd * keyPanelStride(a.rows);
}

void
packKeyPanelsF32(const CausalHeads &a, float *panels)
{
    const int64_t size = a.hd * keyPanelStride(a.rows);
    for (int64_t h = 0; h < a.heads; ++h) {
        packKeyPanelF32(a.k + h * a.hd, a.ld, a.rows, a.hd,
                        panels + h * size);
    }
}

void
causalTextRowsF32(const CausalHeads &a, const float *panels, int64_t s,
                  float *const *text, int64_t ldx)
{
    const int64_t t = a.rows - s;
    if (t <= 0 || a.heads <= 0) {
        return;
    }
    countSoftmaxRows(t * a.heads);
    const int64_t ldt = keyPanelStride(a.rows);
    for (int64_t h = 0; h < a.heads; ++h) {
        const int64_t c0 = h * a.hd;
        qkScoresRange(a.q + c0, a.ld, panels + c0 * ldt, ldt, a.k + c0,
                      a.ld, s, a.rows, a.hd, a.scale, text[h], ldx);
        for (int64_t i = 0; i < t; ++i) {
            softmaxCausalRowF32(text[h] + i * ldx, s + i, a.rows);
        }
    }
}

void
causalAttentionF32(const CausalHeads &a, const float *panels, int64_t s,
                   const float *const *text, int64_t ldx,
                   const int64_t *rowmap, int64_t m, float *out,
                   int64_t ldo)
{
    if (m <= 0 || a.heads <= 0) {
        return;
    }
    int64_t scored = 0;
    for (int64_t r = 0; r < m; ++r) {
        scored += (rowmap != nullptr ? rowmap[r] : r) < s ? 1 : 0;
    }
    if (scored > 0) {
        countSoftmaxRows(scored * a.heads);
    }
    const int64_t ldt = keyPanelStride(a.rows);
    const int64_t blocks = (m + kStreamBlock - 1) / kStreamBlock;
    // One task per (head, block of output rows).  A task scores and
    // normalizes its block's non-text source rows into this thread's
    // block buffer, then runs P*V over them and the text rows' P.
    // Tasks write disjoint (rows x head columns) slices of out.
    auto run = [&](int64_t task) {
        static thread_local std::vector<float> pbuf;
        pbuf.resize(static_cast<size_t>(kStreamBlock * ldt));
        const int64_t h = task / blocks;
        const int64_t r0 = task % blocks * kStreamBlock;
        const int64_t mb = std::min(kStreamBlock, m - r0);
        const int64_t c0 = h * a.hd;
        int64_t src[kStreamBlock];
        int64_t scored_src[kStreamBlock];
        const float *prows[kStreamBlock];
        int64_t nv = 0;
        for (int64_t r = 0; r < mb; ++r) {
            src[r] = rowmap != nullptr ? rowmap[r0 + r] : r0 + r;
            if (src[r] < s) {
                prows[r] = pbuf.data() + nv * ldt;
                scored_src[nv++] = src[r];
            } else {
                prows[r] = text[h] + (src[r] - s) * ldx;
            }
        }
        qkScoresRowsF32(a.q + c0, a.ld, a.k + c0, a.ld,
                        panels + c0 * ldt, ldt, scored_src, nv, a.hd,
                        a.scale, pbuf.data(), ldt);
        for (int64_t r = 0; r < nv; ++r) {
            softmaxCausalRowF32(pbuf.data() + r * ldt, scored_src[r],
                                a.rows);
        }
        pvCausalRowsF32(mb, a.hd, prows, src, a.v + c0, a.ld,
                        out + r0 * ldo + c0, ldo);
    };
    const int64_t tasks = a.heads * blocks;
    ThreadPool &pool = ThreadPool::global();
    if (tasks > 1 && pool.threads() > 1) {
        pool.parallelFor(tasks, run);
    } else {
        for (int64_t t = 0; t < tasks; ++t) {
            run(t);
        }
    }
}

} // namespace kernels
} // namespace focus
