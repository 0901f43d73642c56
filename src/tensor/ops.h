/**
 * @file
 * Numeric kernels for the functional VLM model: GEMM, softmax,
 * RMSNorm, activation functions, and the vector-similarity primitives
 * used by the concentration algorithms.
 */

#ifndef FOCUS_TENSOR_OPS_H
#define FOCUS_TENSOR_OPS_H

#include <cstdint>

#include "tensor/tensor.h"

namespace focus
{

/**
 * C = A * B.  A is (M x K), B is (K x N), C is (M x N), reshaped in
 * place (Tensor::resize) and every element overwritten.
 *
 * Accumulation is float (FP32), matching the PE array.  The forward
 * pass rounds activations through binary16 before they get here
 * (Tensor::roundToFp16); the GEMM itself does not round.
 *
 * Runs the blocked kernel `kernels::gemmF32` (tensor/kernels.h),
 * which is bit-identical to the naive reference loop
 * (tests/reference/gemm.h) and fans M blocks across the global
 * thread pool; see docs/KERNELS.md.
 */
void gemm(const Tensor &a, const Tensor &b, Tensor &c);

/**
 * Row-wise numerically-stable softmax over a rank-2 tensor, through
 * the SFU kernel `kernels::softmaxRowsF32` (polynomial expf, see
 * tensor/kernels.h).  Degenerate shapes (0 rows and/or 0 columns) are
 * defined no-ops.  All-(-inf) rows propagate NaN.
 */
void softmaxRows(Tensor &t);

/**
 * RMSNorm over the last dimension: x / sqrt(mean(x^2) + eps) * gain.
 * @p gain may be empty (all-ones); a non-empty gain whose length is
 * not the column count panics.  Zero-column tensors are a no-op.
 * Runs `kernels::rmsNormRowsF32`.
 */
void rmsNormRows(Tensor &t, const Tensor &gain, float eps = 1e-6f);

/** SiLU (swish), element-wise, through `kernels::siluF32`. */
void siluInPlace(Tensor &t);

/** Dot product of two length-n float vectors. */
float dot(const float *a, const float *b, int64_t n);

/** L2 norm of a length-n float vector. */
float l2Norm(const float *v, int64_t n);

/**
 * Cosine similarity of two length-n vectors.  Returns 0 if either
 * vector has (near-)zero norm, so degenerate vectors never match.
 */
float cosineSimilarity(const float *a, const float *b, int64_t n);

/**
 * Cosine similarity with precomputed norms, as the hardware matcher
 * computes it (norms come from a per-token L2 buffer).
 */
float cosineSimilarityPrenorm(const float *a, float norm_a,
                              const float *b, float norm_b, int64_t n);

/** Max absolute difference between two same-shape tensors. */
double maxAbsDiff(const Tensor &a, const Tensor &b);

} // namespace focus

#endif // FOCUS_TENSOR_OPS_H
