#include "tensor/quant.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace focus
{

QuantizedMatrix
quantizeRows(const Tensor &t)
{
    if (t.rank() != 2) {
        panic("quantizeRows: rank-2 required");
    }
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

Tensor
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

Tensor
int8RoundTrip(const Tensor &t)
{
    return dequantize(quantizeRows(t));
}

} // namespace focus
