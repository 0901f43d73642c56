/**
 * @file
 * Similarity Scatter reference (Sec. VI, Fig. 8): rebuild a full
 * tensor from the compact per-slice buffers that the maps of the
 * gather oracle (sic_gather.h sicGatherMaps) describe.
 * tests/test_sic.cc uses it to prove gather/scatter losslessness; the
 * functional model never scatters (focus/sic.h sicGather overwrites
 * matched rows in place).
 */

#ifndef FOCUS_TESTS_REFERENCE_SIC_SCATTER_H
#define FOCUS_TESTS_REFERENCE_SIC_SCATTER_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "sic_gather.h"
#include "tensor/tensor.h"

namespace focus
{
namespace reference
{

/**
 * Extract the compact buffers implied by a gathered tensor, matching
 * the maps of @p res: per map, its unique vectors in compact order.
 */
inline std::vector<Tensor>
sicCompactBuffers(const Tensor &gathered, const SicMaps &res)
{
    std::vector<Tensor> out;
    out.reserve(res.maps.size());
    const int64_t cols = gathered.cols();

    // Uniform slice width: cols / slices_per_tile, where the slice
    // count is how many maps share the first tile's row origin.
    int64_t slices_per_tile = 0;
    for (const SliceMap &map : res.maps) {
        if (map.tile_row0 == res.maps.front().tile_row0) {
            ++slices_per_tile;
        }
    }
    const int64_t vec = cols / slices_per_tile;

    for (const SliceMap &map : res.maps) {
        Tensor buf(std::max<int64_t>(map.unique, 1), vec);
        const int64_t c0 = static_cast<int64_t>(map.slice) * vec;
        std::vector<bool> written(static_cast<size_t>(map.unique),
                                  false);
        for (int64_t i = 0; i < map.rows; ++i) {
            const int32_t ci =
                map.compact_index[static_cast<size_t>(i)];
            if (!written[static_cast<size_t>(ci)]) {
                const float *src = gathered.row(map.tile_row0 + i) + c0;
                std::copy(src, src + vec, buf.row(ci));
                written[static_cast<size_t>(ci)] = true;
            }
        }
        out.push_back(std::move(buf));
    }
    return out;
}

/**
 * Reconstruct the full (rows x cols) tensor from compact per-slice
 * buffers and the maps of @p res.
 *
 * @param compact  per map, the unique vectors in compact order
 *                 (unique x slice_width each).
 */
inline Tensor
sicScatter(const SicMaps &res, const std::vector<Tensor> &compact,
           int64_t rows, int64_t cols)
{
    if (compact.size() != res.maps.size()) {
        panic("sicScatter: %zu compact buffers for %zu maps",
              compact.size(), res.maps.size());
    }
    Tensor out(rows, cols);
    for (size_t mi = 0; mi < res.maps.size(); ++mi) {
        const SliceMap &map = res.maps[mi];
        const Tensor &buf = compact[mi];
        const int64_t vec = buf.cols();
        const int64_t c0 = static_cast<int64_t>(map.slice) * vec;
        for (int64_t i = 0; i < map.rows; ++i) {
            const int32_t ci =
                map.compact_index[static_cast<size_t>(i)];
            const float *src = buf.row(ci);
            std::copy(src, src + vec, out.row(map.tile_row0 + i) + c0);
        }
    }
    return out;
}

} // namespace reference
} // namespace focus

#endif // FOCUS_TESTS_REFERENCE_SIC_SCATTER_H
