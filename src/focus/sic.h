/**
 * @file
 * Similarity Concentrator (SIC): vector-level redundancy removal
 * within GEMM tiles (Sec. VI).
 *
 * Similarity Gather scans each m x n output tile of a GEMM (n = the
 * vector size, 32 by default), groups vectors into 2x2x2
 * spatiotemporal blocks via the convolution-style layout, and
 * replaces vectors whose cosine similarity to a block neighbour
 * exceeds the threshold with an index reference to that neighbour's
 * representative.  A per-tile similarity map permits exact layout
 * reconstruction (Similarity Scatter; the reference is
 * tests/reference/sic_scatter.h).
 */

#ifndef FOCUS_FOCUS_SIC_H
#define FOCUS_FOCUS_SIC_H

#include <cstdint>
#include <vector>

#include "focus/config.h"
#include "tensor/tensor.h"
#include "workload/video_gen.h"

namespace focus
{

/** Similarity map for one (m-tile, vector-slice) pair. */
struct SliceMap
{
    int64_t tile_row0 = 0;  ///< first global row of the tile
    int64_t rows = 0;       ///< rows in the tile
    int slice = 0;          ///< channel-slice index within the tensor

    /**
     * Per tile-local row: index of its vector in the compact buffer.
     * Unique rows get fresh ascending indices; matched rows reuse the
     * index of their representative (Fig. 6(4)).
     */
    std::vector<int32_t> compact_index;

    int64_t unique = 0;     ///< number of unique vectors (= compact size)

    double
    uniqueFrac() const
    {
        return rows == 0 ? 1.0
                         : static_cast<double>(unique) /
                               static_cast<double>(rows);
    }
};

/** Result of gathering one tensor. */
struct SicResult
{
    std::vector<SliceMap> maps;

    /** Unique fraction per (tile, slice), in scan order. */
    std::vector<double> tile_slice_unique_frac;

    /** Total vectors and unique vectors across the tensor. */
    int64_t total_vectors = 0;
    int64_t unique_vectors = 0;

    double
    uniqueFrac() const
    {
        return total_vectors == 0
            ? 1.0
            : static_cast<double>(unique_vectors) /
                  static_cast<double>(total_vectors);
    }
};

/**
 * Similarity Gather over a full activation tensor, in place.
 *
 * @param x       (rows x cols) activations; rows are tokens in FHW
 *                stream order.  Matched vectors are overwritten with
 *                their representative's values, which is numerically
 *                identical to computing the next GEMM on the compact
 *                buffer and scattering partial sums (the hardware
 *                path of Fig. 8).
 * @param coords  per-row token coordinate; rows with f < 0 (e.g.
 *                text tokens) are never matched and always unique.
 * @param cfg     SIC configuration (threshold, vector size, block
 *                extents, m tile size).
 *
 * Comparisons use the *original* streamed values (the layouter
 * buffer holds raw GEMM outputs), and never cross an m-tile boundary
 * (Fig. 10(a) boundary effect).
 */
SicResult sicGather(Tensor &x, const std::vector<TokenCoord> &coords,
                    const SicConfig &cfg);

} // namespace focus

#endif // FOCUS_FOCUS_SIC_H
