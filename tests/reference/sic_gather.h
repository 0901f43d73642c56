/**
 * @file
 * Similarity Gather reference (Sec. VI, Fig. 6): the oracle the
 * table-driven focus/sic.h sicGather is checked against.
 *
 * Each call indexes the coordinates of its rows afresh and looks every
 * row's block neighbours up again for each vector slice, and it keeps
 * the per-(tile, slice) similarity maps that Similarity Scatter
 * (tests/reference/sic_scatter.h) rebuilds a tensor from.  The
 * production gather must give the same tensor bits, unique counts and
 * tile fractions (tests/test_sic.cc), and the reference forward pass
 * (tests/reference/forward.h) gathers through this function, so the
 * forward tests check the neighbour tables the model keeps per layout
 * end to end.
 */

#ifndef FOCUS_TESTS_REFERENCE_SIC_GATHER_H
#define FOCUS_TESTS_REFERENCE_SIC_GATHER_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "focus/sic.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace focus
{
namespace reference
{

/** Similarity map for one (m-tile, vector-slice) pair. */
struct SliceMap
{
    int64_t tile_row0 = 0;  ///< first row of the tile
    int64_t rows = 0;       ///< rows in the tile
    int slice = 0;          ///< channel-slice index within the tensor

    /**
     * Per tile row: index of its vector in the compact buffer.
     * Unique rows get fresh ascending indices; matched rows reuse the
     * index of their representative (Fig. 6(4)).
     */
    std::vector<int32_t> compact_index;

    int64_t unique = 0;     ///< number of unique vectors (= compact size)
};

/** A gather's counts and fractions, with its maps in scan order. */
struct SicMaps : SicResult
{
    std::vector<SliceMap> maps;
};

/** Dense (f, r, c) -> row lookup, built per gather call. */
class CoordIndex
{
  public:
    explicit CoordIndex(const std::vector<TokenCoord> &coords)
    {
        for (const TokenCoord &t : coords) {
            if (t.f < 0) {
                continue;
            }
            max_f_ = std::max(max_f_, t.f);
            max_r_ = std::max(max_r_, t.r);
            max_c_ = std::max(max_c_, t.c);
        }
        stride_r_ = max_c_ + 1;
        stride_f_ = (max_r_ + 1) * stride_r_;
        table_.assign(static_cast<size_t>((max_f_ + 1) * stride_f_), -1);
        for (size_t i = 0; i < coords.size(); ++i) {
            if (coords[i].f >= 0) {
                table_[key(coords[i])] = static_cast<int64_t>(i);
            }
        }
    }

    /** Row of the token at coordinate @p t, or -1. */
    int64_t
    lookup(const TokenCoord &t) const
    {
        if (t.f < 0 || t.r < 0 || t.c < 0 || t.f > max_f_ ||
            t.r > max_r_ || t.c > max_c_) {
            return -1;
        }
        return table_[key(t)];
    }

  private:
    size_t
    key(const TokenCoord &t) const
    {
        return static_cast<size_t>(t.f * stride_f_ + t.r * stride_r_ +
                                   t.c);
    }

    int max_f_ = 0;
    int max_r_ = 0;
    int max_c_ = 0;
    int64_t stride_f_ = 1;
    int64_t stride_r_ = 1;
    std::vector<int64_t> table_;
};

/**
 * Similarity Gather over every row of @p x in place, with the contract
 * of focus/sic.h sicGather: rows with f < 0 never match, candidates
 * are the block's earlier rows in the same m tile, scanned in delta
 * order (dc fastest), and the last candidate at the best similarity
 * (>= the threshold) wins.
 */
inline SicMaps
sicGatherMaps(Tensor &x, const std::vector<TokenCoord> &coords,
              const SicConfig &cfg)
{
    const int64_t rows = x.rows();
    const int64_t cols = x.cols();
    if (static_cast<int64_t>(coords.size()) != rows) {
        panic("sicGatherMaps: %zu coordinates for %lld rows",
              coords.size(), static_cast<long long>(rows));
    }
    const int64_t vec = cfg.token_wise ? cols : cfg.vector_size;
    if (vec <= 0 || cols % vec != 0) {
        panic("sicGatherMaps: vector size does not divide the columns");
    }
    const int64_t slices = cols / vec;
    const int64_t m_tile = std::max<int64_t>(1, cfg.m_tile);

    SicMaps res;
    const CoordIndex index(coords);
    std::vector<TokenCoord> deltas;
    for (int df = 0; df < cfg.block_f; ++df) {
        for (int dr = 0; dr < cfg.block_h; ++dr) {
            for (int dc = 0; dc < cfg.block_w; ++dc) {
                if (df != 0 || dr != 0 || dc != 0) {
                    deltas.push_back(TokenCoord{df, dr, dc});
                }
            }
        }
    }

    std::vector<float> orig;
    std::vector<float> norms;
    std::vector<int64_t> cand;
    std::vector<float> sims(deltas.size());
    for (int64_t tile0 = 0; tile0 < rows; tile0 += m_tile) {
        const int64_t tile_rows = std::min(m_tile, rows - tile0);
        for (int64_t s = 0; s < slices; ++s) {
            const int64_t c0 = s * vec;
            orig.resize(static_cast<size_t>(tile_rows * vec));
            norms.resize(static_cast<size_t>(tile_rows));
            for (int64_t i = 0; i < tile_rows; ++i) {
                const float *src = x.row(tile0 + i) + c0;
                std::copy(src, src + vec, orig.begin() + i * vec);
            }
            kernels::l2NormRowsF32(orig.data(), vec, tile_rows, vec,
                                   norms.data());

            SliceMap map;
            map.tile_row0 = tile0;
            map.rows = tile_rows;
            map.slice = static_cast<int>(s);
            map.compact_index.assign(static_cast<size_t>(tile_rows), -1);
            // rep[i]: tile row whose original values represent row i.
            std::vector<int32_t> rep(static_cast<size_t>(tile_rows));
            int32_t next_compact = 0;
            for (int64_t i = 0; i < tile_rows; ++i) {
                const int64_t gi = tile0 + i;
                const TokenCoord &key = coords[static_cast<size_t>(gi)];
                int64_t best_j = -1;
                float best_sim = cfg.threshold;
                if (key.f >= 0) {
                    cand.clear();
                    for (const TokenCoord &d : deltas) {
                        const int64_t gj = index.lookup(TokenCoord{
                            key.f - d.f, key.r - d.r, key.c - d.c});
                        if (gj >= tile0 && gj < gi) {
                            cand.push_back(gj - tile0);
                        }
                    }
                    kernels::simGatherF32(
                        orig.data() + i * vec,
                        norms[static_cast<size_t>(i)], orig.data(), vec,
                        norms.data(), cand.data(),
                        static_cast<int64_t>(cand.size()), vec,
                        sims.data());
                    for (size_t c = 0; c < cand.size(); ++c) {
                        if (sims[c] >= best_sim) {
                            best_sim = sims[c];
                            best_j = cand[c];
                        }
                    }
                }

                const size_t ui = static_cast<size_t>(i);
                if (best_j >= 0) {
                    const int32_t root = rep[static_cast<size_t>(best_j)];
                    rep[ui] = root;
                    map.compact_index[ui] =
                        map.compact_index[static_cast<size_t>(root)];
                    const float *rv = orig.data() +
                        static_cast<int64_t>(root) * vec;
                    std::copy(rv, rv + vec, x.row(gi) + c0);
                } else {
                    rep[ui] = static_cast<int32_t>(i);
                    map.compact_index[ui] = next_compact++;
                }
            }

            map.unique = next_compact;
            res.total_vectors += tile_rows;
            res.unique_vectors += map.unique;
            res.tile_slice_unique_frac.push_back(
                static_cast<double>(map.unique) /
                static_cast<double>(tile_rows));
            res.maps.push_back(std::move(map));
        }
    }
    return res;
}

} // namespace reference
} // namespace focus

#endif // FOCUS_TESTS_REFERENCE_SIC_GATHER_H
