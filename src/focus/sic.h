/**
 * @file
 * Similarity Concentrator (SIC): vector-level redundancy removal
 * within GEMM tiles (Sec. VI).
 *
 * The convolution-style layout fixes, once per token stream, which
 * vectors each vector can match: the earlier members of its 2x2x2
 * spatiotemporal block that share its m tile.  sicNeighbours() lists
 * them once per layout; sicGather() then scans each m x n output tile
 * of a GEMM (n = the vector size, 32 by default) and replaces every
 * vector whose cosine similarity to a listed neighbour reaches the
 * threshold with that neighbour's representative.  The forward pass
 * builds the table when it sets a sample up and again after each SEC
 * prune.  The per-tile similarity maps that make the gather lossless
 * (Similarity Scatter) are kept by the test oracle
 * tests/reference/sic_gather.h; tests/reference/sic_scatter.h
 * rebuilds a tensor from them.
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

/**
 * SIC neighbour table of one token layout.  Row i's candidates are
 * list[begin[i] .. begin[i + 1]): the rows of its block that precede
 * it and lie in its m tile, as rows of that tile, in the matcher's
 * delta order.  Rows with f < 0 (text tokens) list none.
 */
struct SicNeighbours
{
    std::vector<int64_t> begin{0};
    std::vector<int64_t> list;

    int64_t rows() const { return static_cast<int64_t>(begin.size()) - 1; }
};

/**
 * The neighbour table of the rows whose token coordinates are
 * @p coords, tiled by cfg.m_tile from row 0.  A block member is the
 * token at (f - df, r - dr, c - dc) for df < block_f, dr < block_h,
 * dc < block_w, not all zero, listed with dc fastest.
 */
SicNeighbours sicNeighbours(const std::vector<TokenCoord> &coords,
                            const SicConfig &cfg);

/** Result of gathering one tensor. */
struct SicResult
{
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
 * Similarity Gather over the rows of a layout, in place.
 *
 * @param x       nb.rows() x @p cols activations, row stride @p ld;
 *                rows are tokens in FHW stream order.  Matched vectors
 *                are overwritten with their representative's values,
 *                which is numerically identical to computing the next
 *                GEMM on the compact buffer and scattering partial
 *                sums (the hardware path of Fig. 8).
 * @param nb      the layout's neighbour table, built with @p cfg.
 * @param cfg     SIC configuration (threshold, vector size, m tile
 *                size).
 *
 * Comparisons use the *original* streamed values (the layouter
 * buffer holds raw GEMM outputs); a candidate matches when its
 * similarity is at least the threshold and the best so far, so the
 * last of equal candidates wins.
 */
SicResult sicGather(float *x, int64_t cols, int64_t ld,
                    const SicNeighbours &nb, const SicConfig &cfg);

/** sicGather over every row of a rank-2 tensor of tokens @p coords. */
SicResult sicGather(Tensor &x, const std::vector<TokenCoord> &coords,
                    const SicConfig &cfg);

} // namespace focus

#endif // FOCUS_FOCUS_SIC_H
