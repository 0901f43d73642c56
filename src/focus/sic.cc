#include "focus/sic.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "common/math_util.h"
#include "obs/trace_span.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace focus
{

namespace
{

/** Dense (f, r, c) -> row lookup built per gather call. */
class CoordIndex
{
  public:
    explicit CoordIndex(const std::vector<TokenCoord> &coords)
    {
        for (size_t i = 0; i < coords.size(); ++i) {
            const TokenCoord &t = coords[i];
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
            const TokenCoord &t = coords[i];
            if (t.f < 0) {
                continue;
            }
            table_[key(t)] = static_cast<int64_t>(i);
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

} // namespace

SicResult
sicGather(Tensor &x, const std::vector<TokenCoord> &coords,
          const SicConfig &cfg)
{
    if (x.rank() != 2) {
        panic("sicGather: rank-2 tensor required");
    }
    const int64_t rows = x.rows();
    const int64_t cols = x.cols();
    if (static_cast<int64_t>(coords.size()) != rows) {
        panic("sicGather: coords size %zu != rows %ld", coords.size(),
              static_cast<long>(rows));
    }

    const int64_t vec = cfg.token_wise ? cols : cfg.vector_size;
    if (vec <= 0 || cols % vec != 0) {
        panic("sicGather: vector size %ld does not divide cols %ld",
              static_cast<long>(vec), static_cast<long>(cols));
    }
    const int64_t slices = cols / vec;
    const int64_t m_tile = std::max<int64_t>(1, cfg.m_tile);

    obs::TraceSpan span("sic.gather");
    if (obs::countersEnabled()) {
        static obs::Counter &tokens =
            obs::MetricsRegistry::instance().counter(
                "sic.gather.tokens");
        tokens.add(static_cast<uint64_t>(rows));
    }

    SicResult res;
    CoordIndex index(coords);

    // Neighbour offsets of the block, excluding (0,0,0): the key is
    // the highest-index member and looks backwards.
    std::vector<TokenCoord> deltas;
    for (int df = 0; df < cfg.block_f; ++df) {
        for (int dr = 0; dr < cfg.block_h; ++dr) {
            for (int dc = 0; dc < cfg.block_w; ++dc) {
                if (df == 0 && dr == 0 && dc == 0) {
                    continue;
                }
                deltas.push_back(TokenCoord{df, dr, dc});
            }
        }
    }

    std::vector<float> orig;    // original tile slice values
    std::vector<float> norms;   // per-row L2 of the original slice
    std::vector<int64_t> cand;  // candidate tile-local rows, delta order
    std::vector<float> sims;    // their similarities vs the key row
    cand.reserve(deltas.size());
    sims.resize(deltas.size());

    for (int64_t tile0 = 0; tile0 < rows; tile0 += m_tile) {
        const int64_t tile_rows = std::min(m_tile, rows - tile0);
        for (int64_t s = 0; s < slices; ++s) {
            const int64_t c0 = s * vec;

            // Pack the tile slice once (the layouter buffer holds raw
            // GEMM outputs) and precompute L2 norms, as the hardware
            // does; the matcher below streams candidates against this
            // packed copy.
            orig.resize(static_cast<size_t>(tile_rows * vec));
            norms.resize(static_cast<size_t>(tile_rows));
            for (int64_t i = 0; i < tile_rows; ++i) {
                const float *src = x.row(tile0 + i) + c0;
                std::copy(src, src + vec,
                          orig.begin() + i * vec);
            }
            kernels::l2NormRowsF32(orig.data(), vec, tile_rows, vec,
                                   norms.data());

            SliceMap map;
            map.tile_row0 = tile0;
            map.rows = tile_rows;
            map.slice = static_cast<int>(s);
            map.compact_index.assign(static_cast<size_t>(tile_rows), -1);

            // rep[i]: tile-local row whose original values represent
            // row i (path-compressed root).
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
                        const TokenCoord nb{key.f - d.f, key.r - d.r,
                                            key.c - d.c};
                        const int64_t gj = index.lookup(nb);
                        // Neighbour must exist, precede the key, and
                        // live in the same tile.
                        if (gj < 0 || gj >= gi || gj < tile0) {
                            continue;
                        }
                        cand.push_back(gj - tile0);
                    }
                    // Batched similarity kernel over the packed tile
                    // slice; the selection scan below keeps the
                    // historical delta order and >= tie rule.
                    kernels::simGatherF32(
                        orig.data() + i * vec,
                        norms[static_cast<size_t>(i)], orig.data(),
                        vec, norms.data(), cand.data(),
                        static_cast<int64_t>(cand.size()), vec,
                        sims.data());
                    for (size_t c = 0; c < cand.size(); ++c) {
                        if (sims[c] >= best_sim) {
                            best_sim = sims[c];
                            best_j = cand[c];
                        }
                    }
                }

                if (best_j >= 0) {
                    // Match: reuse the representative of the matched
                    // neighbour; reconstruct the value in-stream.
                    const int32_t root = rep[static_cast<size_t>(best_j)];
                    rep[static_cast<size_t>(i)] = root;
                    map.compact_index[static_cast<size_t>(i)] =
                        map.compact_index[static_cast<size_t>(root)];
                    const float *rv = orig.data() +
                        static_cast<int64_t>(root) * vec;
                    std::copy(rv, rv + vec, x.row(gi) + c0);
                } else {
                    rep[static_cast<size_t>(i)] =
                        static_cast<int32_t>(i);
                    map.compact_index[static_cast<size_t>(i)] =
                        next_compact++;
                }
            }

            map.unique = next_compact;
            res.total_vectors += tile_rows;
            res.unique_vectors += map.unique;
            res.tile_slice_unique_frac.push_back(map.uniqueFrac());
            res.maps.push_back(std::move(map));
        }
    }
    return res;
}

} // namespace focus
