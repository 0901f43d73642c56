#include "tensor/quant.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace focus
{

void
roundRowsToInt8(Tensor &t)
{
    if (t.rank() != 2) {
        panic("roundRowsToInt8: rank-2 required");
    }
    for (int64_t i = 0; i < t.rows(); ++i) {
        float *row = t.row(i);
        float absmax = 0.0f;
        for (int64_t j = 0; j < t.cols(); ++j) {
            absmax = std::max(absmax, std::abs(row[j]));
        }
        const float scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;
        const float inv = 1.0f / scale;
        for (int64_t j = 0; j < t.cols(); ++j) {
            // The int8 value, as a float: + 0.0f gives a -0 the int8
            // zero's sign.  A float -> int8 -> float conversion would
            // not: under -fno-trapping-math GCC drops it where round
            // is an instruction (x86-64-v3 and up), keeping the -0.
            const float q =
                std::clamp(std::round(row[j] * inv), -127.0f, 127.0f) +
                0.0f;
            row[j] = q * scale;
        }
    }
}

} // namespace focus
