/**
 * @file
 * Reference SFU bodies: the SFU kernels of tensor/kernels.cc and the
 * lane-split dot of `dotRowsScaled`, restated as plain loops, plus the
 * scalar libm loops (`*Libm`) the kernels are bounded against.
 *
 * Each kernel restatement keeps its kernel's lane split, its std::fma
 * sites and its unfused mul + add steps, so it computes the kernel's
 * bits.  These bodies carry no target_clones attribute: the tests
 * compile them once at the baseline ISA, where each std::fma is libm's
 * correctly rounded fmaf, while the kernels run their x86-64-v3 clone
 * on an FMA host.  Bitwise agreement is the cross-clone half of the
 * arithmetic contract (docs/KERNELS.md, "Vectorization and
 * determinism").
 *
 * The `*Libm` loops are the scalar `std::exp` code the SFU tier
 * replaced: serial per-row sums, libm transcendentals.  They depend on
 * the host libm, so the tests compare the kernels to them only within
 * a tolerance (`SfuKernels.*TracksLibm`).
 */

#ifndef FOCUS_TESTS_REFERENCE_SFU_H
#define FOCUS_TESTS_REFERENCE_SFU_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace focus
{
namespace reference
{

/** The polynomial expf of the SFU kernels (kernels.cc expfPoly). */
inline float
expfPoly(float x)
{
    constexpr float hi = 88.0f;
    constexpr float lo = -86.0f;
    float xc = x > lo ? x : lo;
    xc = xc > hi ? hi : xc;
    const float t = std::fma(xc, 1.44269504088896341f, 12582912.0f);
    const float n = t - 12582912.0f;
    float r = std::fma(-n, 0.693359375f, xc);
    r = std::fma(n, 2.12194440e-4f, r);
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
    out = x < lo ? 0.0f : out;
    return x != x ? x : out;
}

/** Sum of eight lanes in the kernels' pairwise order. */
inline float
sumLanes8(const float s[8])
{
    return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

/** One softmaxRowsF32 row: 8-lane max and sum, tails in lane 0. */
inline void
softmaxRowVector(float *row, int64_t n)
{
    constexpr float ninf = -std::numeric_limits<float>::infinity();
    float m[8] = {ninf, ninf, ninf, ninf, ninf, ninf, ninf, ninf};
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        for (int64_t e = 0; e < 8; ++e) {
            m[e] = row[j + e] > m[e] ? row[j + e] : m[e];
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
    for (j = 0; j < n; ++j) {
        row[j] = expfPoly(row[j] - mx);
        s[j < n / 8 * 8 ? j % 8 : 0] += row[j];
    }
    const float inv = 1.0f / sumLanes8(s);
    for (j = 0; j < n; ++j) {
        row[j] *= inv;
    }
}

/** expBiasedSumF32: x[j] = exp(x[j] - bias), 8-lane sum. */
inline float
expBiasedSumVector(float *x, int64_t n, float bias)
{
    float s[8] = {};
    for (int64_t j = 0; j < n; ++j) {
        x[j] = expfPoly(x[j] - bias);
        s[j < n / 8 * 8 ? j % 8 : 0] += x[j];
    }
    return sumLanes8(s);
}

/** siluF32. */
inline void
siluVector(float *x, int64_t n)
{
    for (int64_t i = 0; i < n; ++i) {
        x[i] = x[i] / (1.0f + expfPoly(-x[i]));
    }
}

/**
 * Eight-lane dot: fused lane updates over whole 8-blocks, then an
 * unfused n % 8 tail into lane 0 (simDot1, and the sums of squares of
 * RMSNorm and the L2 norm with a == b).
 */
inline float
dotLanes8(const float *a, const float *b, int64_t n)
{
    float l[8] = {};
    int64_t p = 0;
    for (; p + 8 <= n; p += 8) {
        for (int64_t e = 0; e < 8; ++e) {
            l[e] = std::fma(a[p + e], b[p + e], l[e]);
        }
    }
    for (; p < n; ++p) {
        l[0] += a[p] * b[p];
    }
    return sumLanes8(l);
}

/** One rmsNormRowsF32 row; @p gain may be null. */
inline void
rmsNormRowVector(float *row, int64_t n, const float *gain, float eps)
{
    const float ms = dotLanes8(row, row, n) / static_cast<float>(n);
    const float inv = 1.0f / std::sqrt(ms + eps);
    for (int64_t j = 0; j < n; ++j) {
        row[j] *= gain != nullptr ? inv * gain[j] : inv;
    }
}

/** One l2NormRowsF32 row. */
inline float
l2NormVector(const float *v, int64_t n)
{
    return std::sqrt(dotLanes8(v, v, n));
}

/** One simGatherF32 candidate. */
inline float
simVector(const float *key, float key_norm, const float *row,
          float row_norm, int64_t n)
{
    constexpr float tiny = 1e-12f;
    return (key_norm < tiny || row_norm < tiny)
        ? 0.0f
        : dotLanes8(key, row, n) / (key_norm * row_norm);
}

/**
 * Four-lane dot of dotRowsScaled (dot4 and dot1): lane e takes
 * k = e, e+4, ..., the k % 4 tail folds into lane 0, no step fuses.
 */
inline float
dotLanes4(const float *a, const float *b, int64_t k)
{
    float l[4] = {};
    int64_t p = 0;
    for (; p + 4 <= k; p += 4) {
        for (int64_t e = 0; e < 4; ++e) {
            l[e] += a[p + e] * b[p + e];
        }
    }
    for (; p < k; ++p) {
        l[0] += a[p] * b[p];
    }
    return (l[0] + l[1]) + (l[2] + l[3]);
}

/** Scalar softmax row: serial max, std::exp, serial sum, 1/sum. */
inline void
softmaxRowLibm(float *row, int64_t n)
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

/** Scalar SiLU through std::exp. */
inline void
siluLibm(float *x, int64_t n)
{
    for (int64_t i = 0; i < n; ++i) {
        x[i] = x[i] / (1.0f + std::exp(-x[i]));
    }
}

/** Scalar RMSNorm row (serial sum of squares); @p gain may be null. */
inline void
rmsNormRowLibm(float *row, int64_t n, const float *gain, float eps)
{
    float ms = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
        ms += row[j] * row[j];
    }
    ms /= static_cast<float>(n);
    const float inv = 1.0f / std::sqrt(ms + eps);
    for (int64_t j = 0; j < n; ++j) {
        row[j] *= inv * (gain != nullptr ? gain[j] : 1.0f);
    }
}

} // namespace reference
} // namespace focus

#endif // FOCUS_TESTS_REFERENCE_SFU_H
