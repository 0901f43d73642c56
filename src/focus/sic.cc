#include "focus/sic.h"

#include <algorithm>
#include <cinttypes>

#include "common/logging.h"
#include "obs/trace_span.h"
#include "tensor/kernels.h"

namespace focus
{

SicNeighbours
sicNeighbours(const std::vector<TokenCoord> &coords, const SicConfig &cfg)
{
    // Dense (f, r, c) -> row lookup; a coordinate seen twice maps to
    // its last row.
    int max_f = 0, max_r = 0, max_c = 0;
    for (const TokenCoord &t : coords) {
        if (t.f >= 0) {
            max_f = std::max(max_f, t.f);
            max_r = std::max(max_r, t.r);
            max_c = std::max(max_c, t.c);
        }
    }
    const int64_t stride_r = max_c + 1;
    const int64_t stride_f = (max_r + 1) * stride_r;
    std::vector<int64_t> at(static_cast<size_t>((max_f + 1) * stride_f),
                            -1);
    const auto key = [&](int f, int r, int c) {
        return static_cast<size_t>(f * stride_f + r * stride_r + c);
    };
    const int64_t rows = static_cast<int64_t>(coords.size());
    for (int64_t i = 0; i < rows; ++i) {
        const TokenCoord &t = coords[static_cast<size_t>(i)];
        if (t.f >= 0) {
            at[key(t.f, t.r, t.c)] = i;
        }
    }

    // Block offsets in the matcher's order, excluding (0,0,0): the
    // key is the highest-index member and looks backwards.
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

    const int64_t m_tile = std::max<int64_t>(1, cfg.m_tile);
    SicNeighbours nb;
    nb.begin.reserve(static_cast<size_t>(rows + 1));
    for (int64_t i = 0; i < rows; ++i) {
        const TokenCoord &t = coords[static_cast<size_t>(i)];
        const int64_t tile0 = i - i % m_tile;
        for (const TokenCoord &d : deltas) {
            // A text row (f < 0) has no neighbour at any offset.
            const int f = t.f - d.f, r = t.r - d.r, c = t.c - d.c;
            if (f < 0 || r < 0 || c < 0) {
                continue;
            }
            // The neighbour must exist, precede the row and share its
            // m tile (the Fig. 10(a) boundary effect).
            const int64_t j = at[key(f, r, c)];
            if (j >= tile0 && j < i) {
                nb.list.push_back(j - tile0);
            }
        }
        nb.begin.push_back(static_cast<int64_t>(nb.list.size()));
    }
    return nb;
}

SicResult
sicGather(float *x, int64_t cols, int64_t ld, const SicNeighbours &nb,
          const SicConfig &cfg)
{
    const int64_t rows = nb.rows();
    const int64_t vec = cfg.token_wise ? cols : cfg.vector_size;
    if (vec <= 0 || cols % vec != 0) {
        panic("sicGather: vector size %" PRId64 " does not divide "
              "cols %" PRId64, vec, cols);
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

    int64_t widest = 0;
    for (size_t i = 1; i < nb.begin.size(); ++i) {
        widest = std::max(widest, nb.begin[i] - nb.begin[i - 1]);
    }

    SicResult res;
    std::vector<float> orig;  // original tile slice values
    std::vector<float> norms; // per-row L2 of the original slice
    std::vector<float> sims(static_cast<size_t>(widest));
    // rep[i]: tile row whose original values represent row i.
    std::vector<int64_t> rep;

    for (int64_t tile0 = 0; tile0 < rows; tile0 += m_tile) {
        const int64_t tile_rows = std::min(m_tile, rows - tile0);
        rep.resize(static_cast<size_t>(tile_rows));
        for (int64_t s = 0; s < slices; ++s) {
            const int64_t c0 = s * vec;

            // Pack the tile slice once (the layouter buffer holds raw
            // GEMM outputs) and precompute L2 norms, as the hardware
            // does; the matcher below streams candidates against this
            // packed copy.
            orig.resize(static_cast<size_t>(tile_rows * vec));
            norms.resize(static_cast<size_t>(tile_rows));
            for (int64_t i = 0; i < tile_rows; ++i) {
                const float *src = x + (tile0 + i) * ld + c0;
                std::copy(src, src + vec, orig.begin() + i * vec);
            }
            kernels::l2NormRowsF32(orig.data(), vec, tile_rows, vec,
                                   norms.data());

            int64_t unique = 0;
            for (int64_t i = 0; i < tile_rows; ++i) {
                const size_t row = static_cast<size_t>(tile0 + i);
                const int64_t *cand = nb.list.data() + nb.begin[row];
                const int64_t count = nb.begin[row + 1] - nb.begin[row];
                kernels::simGatherF32(
                    orig.data() + i * vec, norms[static_cast<size_t>(i)],
                    orig.data(), vec, norms.data(), cand, count, vec,
                    sims.data());
                int64_t best = -1;
                float best_sim = cfg.threshold;
                for (int64_t c = 0; c < count; ++c) {
                    if (sims[static_cast<size_t>(c)] >= best_sim) {
                        best_sim = sims[static_cast<size_t>(c)];
                        best = cand[c];
                    }
                }

                if (best >= 0) {
                    // Match: reuse the representative of the matched
                    // neighbour; reconstruct the value in-stream.
                    const int64_t root = rep[static_cast<size_t>(best)];
                    rep[static_cast<size_t>(i)] = root;
                    const float *rv = orig.data() + root * vec;
                    std::copy(rv, rv + vec, x + (tile0 + i) * ld + c0);
                } else {
                    rep[static_cast<size_t>(i)] = i;
                    ++unique;
                }
            }

            res.total_vectors += tile_rows;
            res.unique_vectors += unique;
            res.tile_slice_unique_frac.push_back(
                static_cast<double>(unique) /
                static_cast<double>(tile_rows));
        }
    }
    return res;
}

SicResult
sicGather(Tensor &x, const std::vector<TokenCoord> &coords,
          const SicConfig &cfg)
{
    if (x.rank() != 2 ||
        static_cast<int64_t>(coords.size()) != x.rows()) {
        panic("sicGather: a rank-2 tensor with one coordinate per row "
              "required (%zu coordinates)", coords.size());
    }
    return sicGather(x.data(), x.cols(), x.cols(),
                     sicNeighbours(coords, cfg), cfg);
}

} // namespace focus
