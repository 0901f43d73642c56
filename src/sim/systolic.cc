#include "sim/systolic.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace focus
{

namespace
{

/**
 * The cycle model divides by array/tile/unit dimensions; a
 * non-positive value is a config bug, not a degenerate workload.
 */
void
validateTimingConfig(const AccelConfig &cfg)
{
    if (cfg.array_rows <= 0 || cfg.array_cols <= 0 ||
        cfg.m_tile <= 0 || cfg.scatter_accumulators <= 0 ||
        cfg.sic_matchers <= 0) {
        panic("timeGemm: non-positive AccelConfig dimension "
              "(array_rows=%d array_cols=%d m_tile=%" PRId64
              " scatter_accumulators=%d sic_matchers=%d)",
              cfg.array_rows, cfg.array_cols, cfg.m_tile,
              cfg.scatter_accumulators, cfg.sic_matchers);
    }
}

/** One run of equally-sized tiles along a dimension. */
struct TileBand
{
    int64_t size;  ///< rows (or cols) per tile in this band
    int64_t count; ///< number of such tiles
};

/**
 * Decompose @p total (> 0) tiled by @p tile into at most two bands:
 * the full tiles and the (possibly absent) edge tile.
 */
int
tileBands(int64_t total, int64_t tile, TileBand out[2])
{
    const int64_t tiles = ceilDiv(total, tile);
    const int64_t edge = total - (tiles - 1) * tile;
    if (edge == tile) {
        out[0] = {tile, tiles};
        return 1;
    }
    int n = 0;
    if (tiles > 1) {
        out[n++] = {tile, tiles - 1};
    }
    out[n++] = {edge, 1};
    return n;
}

/**
 * Sum of @p len consecutive entries of the cyclic sequence whose
 * prefix sums are @p prefix (prefix[j] = sum of the first j entries,
 * so prefix.size() = T + 1), starting at position @p c < T.  Integer
 * arithmetic throughout, so the result equals the sequential sum
 * exactly.
 */
template <typename V>
V
cyclicRangeSum(const std::vector<V> &prefix, size_t c, uint64_t len)
{
    const size_t T = prefix.size() - 1;
    const V total = prefix[T];
    V sum = static_cast<V>(len / T) * total;
    const size_t e = c + len % T;
    if (e <= T) {
        sum += prefix[e] - prefix[c];
    } else {
        sum += (total - prefix[c]) + prefix[e - T];
    }
    return sum;
}

} // namespace

double
GemmTiming::utilization(const AccelConfig &cfg) const
{
    if (cycles == 0) {
        return 0.0;
    }
    return mac_ops / (static_cast<double>(cycles) * cfg.array_rows *
                      cfg.array_cols);
}

GemmTiming
timeGemm(const AccelConfig &cfg, int64_t m, int64_t k, int64_t n,
         FracSampler &psi, bool sic_input, bool gather_out,
         TileLengthHistogram &tile_lengths)
{
    validateTimingConfig(cfg);
    GemmTiming t;
    if (m <= 0 || k <= 0 || n <= 0) {
        return t;
    }
    const int64_t a = cfg.array_cols;
    const int64_t b = cfg.array_rows;
    const int64_t fill = (a - 1) + (b - 1);

    const int64_t m_tiles = ceilDiv(m, cfg.m_tile);
    const int64_t k_subs = ceilDiv(k, b);
    const int64_t n_tiles = ceilDiv(n, a);
    const int64_t last_k_eff = k - (k_subs - 1) * b;
    const uint64_t matcher_den =
        static_cast<uint64_t>(cfg.sic_matchers);
    TileBand mb[2], nb[2];
    const int mbn = tileBands(m, cfg.m_tile, mb);
    const int nbn = tileBands(n, a, nb);

    if (!sic_input) {
        // Dense input: every sub-tile of an (m-rows, n-cols) tile
        // costs the same, so the whole walk collapses onto the <= 2x2
        // distinct (m-band, n-band) combinations.  All op counters
        // accumulate integer-valued doubles, so these aggregated sums
        // equal the walk's incremental sums bit-for-bit below 2^53.
        for (int mi = 0; mi < mbn; ++mi) {
            const int64_t m_rows = mb[mi].size;
            const uint64_t tile_base = static_cast<uint64_t>(b) +
                static_cast<uint64_t>(k_subs) *
                    (static_cast<uint64_t>(m_rows) + fill);
            const uint64_t matcher = gather_out
                ? ceilDiv<uint64_t>(
                      8ull * static_cast<uint64_t>(m_rows), matcher_den)
                : 0;
            for (int ni = 0; ni < nbn; ++ni) {
                const int64_t n_eff = nb[ni].size;
                const int64_t tiles = mb[mi].count * nb[ni].count;
                uint64_t tile_cycles = tile_base;
                if (gather_out) {
                    t.matcher_ops += 8.0 *
                        static_cast<double>(m_rows) * n_eff * tiles;
                    if (matcher > tile_cycles) {
                        t.stall_matcher += (matcher - tile_cycles) *
                            static_cast<uint64_t>(tiles);
                        tile_cycles = matcher;
                    }
                }
                t.cycles += tile_cycles * static_cast<uint64_t>(tiles);
                t.mac_ops += static_cast<double>(m_rows) * k * n_eff *
                    tiles;
            }
        }
        return t;
    }

    // SIC input: one psi draw per (m-tile, n-tile, k-sub-tile), in
    // the walk's order.  The sampler is round-robin, so draw d of this
    // GEMM is position d mod T of the T = min(S, draws) values it
    // draws from the cursor on: all S when its draws wrap the
    // distribution, only its own otherwise (S = 1 when the sampler
    // holds a mean).  Tabulate p, and the sub-tile latency it
    // implies, once per position and tile geometry with prefix sums;
    // each (m-tile, n-tile) window of k_subs draws then costs O(1)
    // lookups.  The scatter stall needs no table of its own: per
    // sub-tile stall = sub - compute, so a window's stall is
    // sum(sub) - (sum(p) + k_subs * fill), exactly, in integers.
    const uint64_t draws = static_cast<uint64_t>(m_tiles) *
        static_cast<uint64_t>(n_tiles) * static_cast<uint64_t>(k_subs);
    const size_t T =
        static_cast<size_t>(std::min<uint64_t>(psi.size(), draws));
    std::vector<double> frac(T);
    for (double &f : frac) {
        f = clamp(psi.next(), 0.0, 1.0);
    }
    psi.advance(draws - T);

    // p and prefix(p) per m-band; prefix(sub-tile latency) per
    // (m-band, n-band).  Fig. 13: the full m-tiles, then the edge
    // tile, draw one contiguous run of the cycle each, so position j
    // is drawn run / T times, plus once if it is among the run % T
    // positions from the run's start.
    std::vector<int64_t> p_tab[2];
    std::vector<int64_t> pre_p[2];
    std::vector<uint64_t> pre_sub[2][2];
    size_t start = 0;
    for (int mi = 0; mi < mbn; ++mi) {
        const double md = static_cast<double>(mb[mi].size);
        const uint64_t run = static_cast<uint64_t>(mb[mi].count) *
            static_cast<uint64_t>(n_tiles) *
            static_cast<uint64_t>(k_subs);
        p_tab[mi].resize(T);
        pre_p[mi].assign(T + 1, 0);
        for (size_t j = 0; j < T; ++j) {
            const int64_t p = std::max<int64_t>(
                1, static_cast<int64_t>(std::llround(frac[j] * md)));
            p_tab[mi][j] = p;
            pre_p[mi][j + 1] = pre_p[mi][j] + p;
            const size_t from_start = j >= start ? j - start
                                                 : j + T - start;
            tile_lengths.counts[TileLengthHistogram::bin(p, cfg.m_tile)] +=
                run / T + (from_start < run % T ? 1 : 0);
        }
        start = (start + run) % T;
        for (int ni = 0; ni < nbn; ++ni) {
            const uint64_t scatter = ceilDiv<uint64_t>(
                static_cast<uint64_t>(mb[mi].size) * nb[ni].size,
                static_cast<uint64_t>(cfg.scatter_accumulators));
            pre_sub[mi][ni].assign(T + 1, 0);
            for (size_t j = 0; j < T; ++j) {
                const uint64_t compute =
                    static_cast<uint64_t>(p_tab[mi][j]) + fill;
                pre_sub[mi][ni][j + 1] = pre_sub[mi][ni][j] +
                    std::max(compute, scatter);
            }
        }
    }

    const uint64_t len = static_cast<uint64_t>(k_subs);
    size_t c = 0; // table position of the window's first draw
    for (int64_t mt = 0; mt < m_tiles; ++mt) {
        const int mi = (mbn == 2 && mt == m_tiles - 1) ? 1 : 0;
        const std::vector<int64_t> &p_of = p_tab[mi];
        const double md = static_cast<double>(mb[mi].size);
        const uint64_t matcher = gather_out
            ? ceilDiv<uint64_t>(
                  8ull * static_cast<uint64_t>(mb[mi].size), matcher_den)
            : 0;
        for (int64_t nt = 0; nt < n_tiles; ++nt) {
            const int ni = (nbn == 2 && nt == n_tiles - 1) ? 1 : 0;
            const int64_t n_eff = nb[ni].size;
            const uint64_t sum_sub =
                cyclicRangeSum(pre_sub[mi][ni], c, len);
            const int64_t p_sum = cyclicRangeSum(pre_p[mi], c, len);
            const int64_t p_last = p_of[(c + len - 1) % T];
            t.stall_scatter += sum_sub -
                (static_cast<uint64_t>(p_sum) +
                 len * static_cast<uint64_t>(fill));
            t.scatter_ops += md * n_eff * k_subs;
            t.mac_ops += static_cast<double>(
                (p_sum - p_last) * b + p_last * last_k_eff) * n_eff;
            uint64_t tile_cycles = static_cast<uint64_t>(b) + sum_sub;
            if (gather_out) {
                t.matcher_ops += 8.0 * md * n_eff;
                if (matcher > tile_cycles) {
                    t.stall_matcher += matcher - tile_cycles;
                    tile_cycles = matcher;
                }
            }
            t.cycles += tile_cycles;
            c = (c + len) % T;
        }
    }
    return t;
}

uint64_t
secSorterStall(const AccelConfig &cfg, int64_t m_tokens, int64_t text,
               int64_t head_dim, int64_t heads, int64_t topk)
{
    if (topk <= 0) {
        return 0;
    }
    const int64_t a = cfg.sec_lanes;
    const int64_t b = cfg.array_rows;
    // Sorter: ceil(k/a) passes of M candidates each (Fig. 5(4)).
    const uint64_t sorter = static_cast<uint64_t>(m_tokens) *
        ceilDiv(topk, a);
    // Overlap window: the image-query attention GEMM,
    // M(M+T)h/(a*b) cycles per head across all heads (Fig. 5 bottom).
    const double window = static_cast<double>(m_tokens) *
        (m_tokens + text) * head_dim * heads /
        (static_cast<double>(a) * b);
    if (static_cast<double>(sorter) <= window) {
        return 0;
    }
    return sorter - static_cast<uint64_t>(window);
}

} // namespace focus
