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
 * int8 product is computed.
 */

#ifndef FOCUS_TENSOR_QUANT_H
#define FOCUS_TENSOR_QUANT_H

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace focus
{

/** A rank-2 tensor quantized row-wise to int8. */
struct QuantizedMatrix
{
    int64_t rows = 0;
    int64_t cols = 0;
    std::vector<int8_t> data;   ///< row-major int8 values
    std::vector<float> scales;  ///< one scale per row

    const int8_t *row(int64_t i) const { return data.data() + i * cols; }
};

/** Quantize with per-row symmetric scales (absmax / 127). */
QuantizedMatrix quantizeRows(const Tensor &t);

/** Dequantize back to float. */
Tensor dequantize(const QuantizedMatrix &q);

/**
 * Round-trip a tensor through int8 (quantize + dequantize).  This is
 * how the INT8 experiments inject quantization error into the
 * functional pipeline.
 */
Tensor int8RoundTrip(const Tensor &t);

} // namespace focus

#endif // FOCUS_TENSOR_QUANT_H
