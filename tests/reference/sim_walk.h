/**
 * @file
 * Reference per-tile walk of the systolic-array cycle model: the
 * oracle sim/systolic.h timeGemm's closed-form costing is checked
 * against (tests/test_sim_equiv.cc).
 *
 * The model is the one documented in sim/systolic.h, evaluated the
 * obvious way: one loop iteration per (m-tile, n-tile, k-sub-tile),
 * one FracSampler draw per SIC-input sub-tile, in that order, each
 * draw's p appended to the Fig. 13 log until it holds
 * kTileLengthCap entries.
 */

#ifndef FOCUS_TESTS_REFERENCE_SIM_WALK_H
#define FOCUS_TESTS_REFERENCE_SIM_WALK_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/math_util.h"
#include "sim/systolic.h"

namespace focus
{
namespace reference
{

/** timeGemm, one tile at a time (same signature and contract). */
inline GemmTiming
timeGemmWalk(const AccelConfig &cfg, int64_t m, int64_t k, int64_t n,
             FracSampler &psi, bool sic_input, bool gather_out,
             std::vector<int64_t> &tile_lengths)
{
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

    uint64_t cycles = 0;
    for (int64_t mt = 0; mt < m_tiles; ++mt) {
        const int64_t m_rows = std::min(cfg.m_tile, m - mt * cfg.m_tile);
        for (int64_t nt = 0; nt < n_tiles; ++nt) {
            const int64_t n_eff = std::min(a, n - nt * a);
            // First weight sub-tile load is exposed; the rest are
            // double-buffered behind compute.
            uint64_t tile_cycles = static_cast<uint64_t>(b);
            for (int64_t ks = 0; ks < k_subs; ++ks) {
                const int64_t k_eff = std::min(b, k - ks * b);
                int64_t p = m_rows;
                if (sic_input) {
                    const double f = clamp(psi.next(), 0.0, 1.0);
                    p = std::max<int64_t>(1, static_cast<int64_t>(
                        std::llround(f * static_cast<double>(m_rows))));
                    if (tile_lengths.size() < kTileLengthCap) {
                        tile_lengths.push_back(p);
                    }
                }
                const uint64_t compute =
                    static_cast<uint64_t>(p) + fill;
                uint64_t sub = compute;
                if (sic_input) {
                    // Scatter: every partial sum is redistributed to
                    // all m_rows original rows through the W-wide
                    // accumulator (Fig. 8(2)).
                    const uint64_t scatter = ceilDiv<uint64_t>(
                        static_cast<uint64_t>(m_rows) * n_eff,
                        static_cast<uint64_t>(
                            cfg.scatter_accumulators));
                    t.scatter_ops +=
                        static_cast<double>(m_rows) * n_eff;
                    if (scatter > sub) {
                        t.stall_scatter += scatter - sub;
                        sub = scatter;
                    }
                }
                t.mac_ops += static_cast<double>(p) * k_eff * n_eff;
                tile_cycles += sub;
            }
            if (gather_out) {
                // Matcher: up to 7 compare dot-products + 1 norm per
                // output vector, overlapped with the tile's GEMM time.
                const uint64_t matcher = ceilDiv<uint64_t>(
                    8ull * static_cast<uint64_t>(m_rows),
                    static_cast<uint64_t>(cfg.sic_matchers));
                t.matcher_ops += 8.0 * static_cast<double>(m_rows) *
                    n_eff;
                if (matcher > tile_cycles) {
                    t.stall_matcher += matcher - tile_cycles;
                    tile_cycles = matcher;
                }
            }
            cycles += tile_cycles;
        }
    }
    t.cycles = cycles;
    return t;
}

} // namespace reference
} // namespace focus

#endif // FOCUS_TESTS_REFERENCE_SIM_WALK_H
