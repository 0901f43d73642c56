/**
 * @file
 * INT8 symmetric quantization used by the Tbl. IV "synergy with
 * quantization" experiment.
 *
 * Weights (once, at model load) and the RMSNorm outputs that feed the
 * QKV and FFN projections (per forward pass) are round-tripped through
 * int8 with a symmetric per-row scale, and the products then run the
 * ordinary fp32 `gemm`.  This models W8A8 inference at the fidelity
 * level that matters for the concentration algorithms: the
 * quantization noise perturbs cosine similarities and attention
 * scores, which is what shifts sparsity/accuracy in the paper.  No
 * int8 product is computed, and no int8 matrix is kept: the test
 * oracle tests/reference/quant.h quantizes and dequantizes in two
 * steps.
 */

#ifndef FOCUS_TENSOR_QUANT_H
#define FOCUS_TENSOR_QUANT_H

#include "tensor/tensor.h"

namespace focus
{

/**
 * Round-trip every row of a rank-2 tensor through int8, in place: the
 * row's scale is absmax / 127 (1 for an all-zero row), each element
 * becomes round(x / scale) clamped to [-127, 127], times the scale.
 */
void roundRowsToInt8(Tensor &t);

} // namespace focus

#endif // FOCUS_TENSOR_QUANT_H
