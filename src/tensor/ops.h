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
 * C = A * B.  A is (M x K), B is (K x N), C is (M x N).
 *
 * Accumulation is float (FP32), matching the PE array; if
 * @p fp16_inputs is true both inputs are rounded through binary16
 * element-wise before use, emulating FP16 operand storage.
 *
 * Runs the blocked kernel `kernels::gemmF32` (tensor/kernels.h),
 * which is bit-identical to the naive reference loop
 * (tests/reference/gemm.h) and fans M blocks across the global
 * thread pool; see docs/KERNELS.md.
 */
void gemm(const Tensor &a, const Tensor &b, Tensor &c,
          bool fp16_inputs = false);

/**
 * Row-wise numerically-stable softmax over a rank-2 tensor.
 * Degenerate shapes (0 rows and/or 0 columns) are defined no-ops.
 * All-(-inf) rows propagate NaN.  Dispatches on the SFU math backend
 * (`FOCUS_MATH_BACKEND=exact|vector`, see tensor/kernels.h): exact
 * is the historical bit-identical scalar path, vector the polynomial
 * SIMD path.
 */
void softmaxRows(Tensor &t);

/**
 * Row-wise softmax with an additive mask (mask 0 or -inf style).
 * Both operands must be rank-2 of the same shape; rank is validated
 * before the mask is applied.
 */
void softmaxRowsMasked(Tensor &t, const Tensor &mask);

/**
 * RMSNorm over the last dimension: x / sqrt(mean(x^2) + eps) * gain.
 * @p gain may be empty (all-ones); a non-empty gain whose length is
 * not the column count panics.  Zero-column tensors are a no-op.
 * Backend-dispatched like softmaxRows().
 */
void rmsNormRows(Tensor &t, const Tensor &gain, float eps = 1e-6f);

/** SiLU (swish), element-wise.  Backend-dispatched like softmaxRows(). */
void siluInPlace(Tensor &t);

/**
 * GELU (tanh approximation), element-wise.  Backend-dispatched like
 * softmaxRows().
 */
void geluInPlace(Tensor &t);

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

/** Mean absolute relative error between two same-shape tensors. */
double relativeError(const Tensor &a, const Tensor &b);

/** Max absolute difference between two same-shape tensors. */
double maxAbsDiff(const Tensor &a, const Tensor &b);

} // namespace focus

#endif // FOCUS_TENSOR_OPS_H
