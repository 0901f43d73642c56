/**
 * @file
 * INT8 quantization reference: per-row symmetric quantization to an
 * int8 matrix and dequantization back, as two steps.  tensor/quant.h
 * roundRowsToInt8 does both in place, row by row; the weight oracle
 * (model_init.h), the reference forward pass (forward.h) and
 * tests/test_tensor.cc check it against int8RoundTrip here bit for
 * bit.
 */

#ifndef FOCUS_TESTS_REFERENCE_QUANT_H
#define FOCUS_TESTS_REFERENCE_QUANT_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace focus
{
namespace reference
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
inline QuantizedMatrix
quantizeRows(const Tensor &t)
{
    QuantizedMatrix q;
    q.rows = t.rows();
    q.cols = t.cols();
    q.data.resize(static_cast<size_t>(q.rows * q.cols));
    q.scales.resize(static_cast<size_t>(q.rows));
    for (int64_t i = 0; i < q.rows; ++i) {
        const float *row = t.row(i);
        float absmax = 0.0f;
        for (int64_t j = 0; j < q.cols; ++j) {
            absmax = std::max(absmax, std::abs(row[j]));
        }
        const float scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;
        q.scales[static_cast<size_t>(i)] = scale;
        const float inv = 1.0f / scale;
        for (int64_t j = 0; j < q.cols; ++j) {
            const float v = std::round(row[j] * inv);
            q.data[static_cast<size_t>(i * q.cols + j)] =
                static_cast<int8_t>(std::clamp(v, -127.0f, 127.0f));
        }
    }
    return q;
}

/** Dequantize back to float. */
inline Tensor
dequantize(const QuantizedMatrix &q)
{
    Tensor t(q.rows, q.cols);
    for (int64_t i = 0; i < q.rows; ++i) {
        const float scale = q.scales[static_cast<size_t>(i)];
        const int8_t *src = q.row(i);
        float *dst = t.row(i);
        for (int64_t j = 0; j < q.cols; ++j) {
            dst[j] = static_cast<float>(src[j]) * scale;
        }
    }
    return t;
}

/** Round-trip a tensor through int8: quantize, then dequantize. */
inline Tensor
int8RoundTrip(const Tensor &t)
{
    return dequantize(quantizeRows(t));
}

} // namespace reference
} // namespace focus

#endif // FOCUS_TESTS_REFERENCE_QUANT_H
