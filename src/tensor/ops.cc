#include "tensor/ops.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace focus
{

void
gemm(const Tensor &a, const Tensor &b, Tensor &c, bool fp16_inputs)
{
    if (a.rank() != 2 || b.rank() != 2) {
        panic("gemm: operands must be rank-2");
    }
    const int64_t m = a.rows();
    const int64_t k = a.cols();
    const int64_t n = b.cols();
    if (b.rows() != k) {
        panic("gemm: inner dims mismatch (%" PRId64 " vs %" PRId64 ")",
              k, b.rows());
    }
    if (c.rank() != 2 || c.rows() != m || c.cols() != n) {
        c = Tensor(m, n);
    }
    kernels::gemmF32(m, n, k, a.data(), k, b.data(), n, c.data(), n,
                     fp16_inputs);
}

void
softmaxRows(Tensor &t)
{
    if (t.rank() != 2) {
        panic("softmaxRows: rank-2 required");
    }
    // The kernel defines zero-column (and zero-row) tensors as a
    // no-op — the historical loop read row[0] of an empty row.
    kernels::softmaxRowsF32(t.rows(), t.cols(), t.data(), t.cols());
}

void
softmaxRowsMasked(Tensor &t, const Tensor &mask)
{
    // Rank is validated before the mask is applied so a bad call
    // panics without half-mutating t.
    if (t.rank() != 2) {
        panic("softmaxRowsMasked: rank-2 required");
    }
    if (!t.sameShape(mask)) {
        panic("softmaxRowsMasked: shape mismatch");
    }
    for (int64_t i = 0; i < t.rows(); ++i) {
        float *row = t.row(i);
        const float *mrow = mask.row(i);
        for (int64_t j = 0; j < t.cols(); ++j) {
            row[j] += mrow[j];
        }
    }
    softmaxRows(t);
}

void
rmsNormRows(Tensor &t, const Tensor &gain, float eps)
{
    if (t.rank() != 2) {
        panic("rmsNormRows: rank-2 required");
    }
    const int64_t n = t.cols();
    // Empty gain means all-ones; a non-empty gain of the wrong
    // length is a caller bug (historically it was silently ignored,
    // producing un-gained output).
    if (gain.numel() != 0 && gain.numel() != n) {
        panic("rmsNormRows: gain numel %" PRId64 " != cols %" PRId64,
              gain.numel(), n);
    }
    kernels::rmsNormRowsF32(t.rows(), n, t.data(), n,
                            gain.numel() == n && n > 0 ? gain.data()
                                                       : nullptr,
                            eps);
}

void
siluInPlace(Tensor &t)
{
    kernels::siluF32(t.data(), t.numel());
}

void
geluInPlace(Tensor &t)
{
    kernels::geluF32(t.data(), t.numel());
}

float
dot(const float *a, const float *b, int64_t n)
{
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
    }
    for (; i < n; ++i) {
        s0 += a[i] * b[i];
    }
    return (s0 + s1) + (s2 + s3);
}

float
l2Norm(const float *v, int64_t n)
{
    return std::sqrt(dot(v, v, n));
}

float
cosineSimilarity(const float *a, const float *b, int64_t n)
{
    return cosineSimilarityPrenorm(a, l2Norm(a, n), b, l2Norm(b, n), n);
}

float
cosineSimilarityPrenorm(const float *a, float norm_a,
                        const float *b, float norm_b, int64_t n)
{
    constexpr float tiny = 1e-12f;
    if (norm_a < tiny || norm_b < tiny) {
        return 0.0f;
    }
    return dot(a, b, n) / (norm_a * norm_b);
}

double
relativeError(const Tensor &a, const Tensor &b)
{
    if (!a.sameShape(b)) {
        panic("relativeError: shape mismatch");
    }
    double num = 0.0, den = 0.0;
    const float *pa = a.data();
    const float *pb = b.data();
    for (int64_t i = 0; i < a.numel(); ++i) {
        num += std::abs(static_cast<double>(pa[i]) -
                        static_cast<double>(pb[i]));
        den += std::abs(static_cast<double>(pb[i]));
    }
    return den == 0.0 ? num : num / den;
}

double
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    if (!a.sameShape(b)) {
        panic("maxAbsDiff: shape mismatch");
    }
    double mx = 0.0;
    const float *pa = a.data();
    const float *pb = b.data();
    for (int64_t i = 0; i < a.numel(); ++i) {
        mx = std::max(mx, std::abs(static_cast<double>(pa[i]) -
                                   static_cast<double>(pb[i])));
    }
    return mx;
}

} // namespace focus
