/**
 * @file
 * Tests for the Similarity Concentrator: the neighbour table, gather
 * semantics, the production gather against the per-call oracle
 * (tests/reference/sic_gather.h), map correctness, scatter
 * losslessness, tile-boundary behaviour, and vector- vs
 * token-granularity properties.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "focus/sic.h"
#include "reference/sic_gather.h"
#include "reference/sic_scatter.h"
#include "tensor/ops.h"

namespace focus
{
namespace
{

/** Coordinates of a small FxHxW raster. */
std::vector<TokenCoord>
rasterCoords(int f, int h, int w)
{
    std::vector<TokenCoord> coords;
    for (int ff = 0; ff < f; ++ff) {
        for (int rr = 0; rr < h; ++rr) {
            for (int cc = 0; cc < w; ++cc) {
                coords.push_back(TokenCoord{ff, rr, cc});
            }
        }
    }
    return coords;
}

Tensor
randomActivations(Rng &rng, int64_t rows, int64_t cols)
{
    Tensor t(rows, cols);
    for (int64_t i = 0; i < t.numel(); ++i) {
        t.data()[i] = static_cast<float>(rng.gaussian());
    }
    return t;
}

/**
 * A random token layout: an f x h x w raster in stream order, whole or
 * thinned to an ascending subset as SEC prunes it, then @p text text
 * rows (f < 0).
 */
std::vector<TokenCoord>
randomLayout(Rng &rng, bool pruned, int text)
{
    const int f = 1 + static_cast<int>(rng.uniformInt(3));
    const int h = 1 + static_cast<int>(rng.uniformInt(5));
    const int w = 1 + static_cast<int>(rng.uniformInt(5));
    const double keep = rng.uniform(0.3, 0.9);
    std::vector<TokenCoord> coords;
    for (const TokenCoord &t : rasterCoords(f, h, w)) {
        if (!pruned || rng.bernoulli(keep)) {
            coords.push_back(t);
        }
    }
    coords.resize(coords.size() + static_cast<size_t>(text),
                  TokenCoord{-1, 0, 0});
    return coords;
}

/**
 * Activations with exact similarity ties: each @p vec-wide slice of a
 * row is noise, zero, or the same slice of an earlier row times +-1,
 * 2 or 1/2.  Power-of-two multiples scale every dot product and norm
 * exactly, so candidates of equal similarity but different values
 * meet, and the candidate order decides which one a row copies.
 */
Tensor
tiedActivations(Rng &rng, int64_t rows, int64_t cols, int64_t vec)
{
    static const float kScales[] = {1.0f, -1.0f, 2.0f, 0.5f, -2.0f};
    Tensor x = randomActivations(rng, rows, cols);
    for (int64_t i = 0; i < rows; ++i) {
        for (int64_t c0 = 0; c0 < cols; c0 += vec) {
            const double u = rng.uniform();
            if (u < 0.1) {
                std::fill(x.row(i) + c0, x.row(i) + c0 + vec, 0.0f);
            } else if (u < 0.75 && i > 0) {
                const int64_t j = i - 1 -
                    static_cast<int64_t>(rng.uniformInt(
                        static_cast<uint64_t>(std::min<int64_t>(i, 12))));
                const float k = kScales[rng.uniformInt(5)];
                for (int64_t e = c0; e < c0 + vec; ++e) {
                    x(i, e) = k * x(j, e);
                }
            }
        }
    }
    return x;
}

TEST(SicNeighbours, EarlierBlockRowsInDeltaOrderWithinTile)
{
    // A 2x2x2 raster and one text row.  The last token's block is the
    // whole raster, listed with dc fastest: (1,1,0), (1,0,1), (1,0,0),
    // (0,1,1), ... as rows 6, 5, 4, 3, ...
    std::vector<TokenCoord> coords = rasterCoords(2, 2, 2);
    coords.push_back(TokenCoord{-1, 0, 0});
    SicConfig cfg;
    const auto listOf = [](const SicNeighbours &nb, int64_t i) {
        return std::vector<int64_t>(
            nb.list.begin() + nb.begin[static_cast<size_t>(i)],
            nb.list.begin() + nb.begin[static_cast<size_t>(i + 1)]);
    };

    const SicNeighbours whole = sicNeighbours(coords, cfg);
    ASSERT_EQ(whole.rows(), 9);
    EXPECT_EQ(listOf(whole, 0), std::vector<int64_t>{});
    EXPECT_EQ(listOf(whole, 3), (std::vector<int64_t>{2, 1, 0}));
    EXPECT_EQ(listOf(whole, 7),
              (std::vector<int64_t>{6, 5, 4, 3, 2, 1, 0}));
    EXPECT_EQ(listOf(whole, 8), std::vector<int64_t>{});

    // Four-row m tiles: rows 4-7 see only each other, as tile rows.
    cfg.m_tile = 4;
    const SicNeighbours tiled = sicNeighbours(coords, cfg);
    EXPECT_EQ(listOf(tiled, 4), std::vector<int64_t>{});
    EXPECT_EQ(listOf(tiled, 7), (std::vector<int64_t>{2, 1, 0}));
    EXPECT_EQ(listOf(tiled, 8), std::vector<int64_t>{});

    // A pruned layout lists the rows its kept tokens landed on.
    const std::vector<TokenCoord> kept = {coords[1], coords[2],
                                          coords[7]};
    const SicNeighbours pruned = sicNeighbours(kept, SicConfig{});
    EXPECT_EQ(listOf(pruned, 2), (std::vector<int64_t>{1, 0}));
}

// The production gather over a prebuilt neighbour table must give the
// per-call oracle's tensor bits, unique counts and tile fractions.
// The layouts cover whole rasters and SEC-pruned subsets, m tiles
// shorter than the layout, token-wise matching, text rows, other
// block extents and thresholds 0 and 1; the rows sit inside a wider
// packed buffer whose other columns must not change.  The activations
// carry exact similarity ties, so a change of candidate order changes
// the result.
TEST(SicGather, MatchesOracleOnRandomLayouts)
{
    static const float kThresholds[] = {0.0f, 1.0f, 0.5f, 0.9f, 0.99f};
    Rng rng(30);
    int64_t matched = 0, short_tiles = 0;
    for (int trial = 0; trial < 240; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const bool pruned = trial % 2 == 1;
        const int text = static_cast<int>(rng.uniformInt(4));
        const std::vector<TokenCoord> coords =
            randomLayout(rng, pruned, text);
        const int64_t rows = static_cast<int64_t>(coords.size());

        SicConfig cfg;
        cfg.threshold = kThresholds[trial % 5];
        cfg.vector_size = 8 << rng.uniformInt(3);
        cfg.token_wise = trial % 7 == 3;
        if (trial % 4 == 2) {
            cfg.block_f = 1 + static_cast<int>(rng.uniformInt(3));
            cfg.block_h = 1 + static_cast<int>(rng.uniformInt(3));
            cfg.block_w = 1 + static_cast<int>(rng.uniformInt(3));
        }
        cfg.m_tile = trial % 3 == 0
            ? 1024 : 1 + static_cast<int64_t>(rng.uniformInt(
                             static_cast<uint64_t>(std::max<int64_t>(
                                 rows, 1))));
        const int64_t cols = cfg.vector_size *
            (1 + static_cast<int64_t>(rng.uniformInt(3)));
        const int64_t vec = cfg.token_wise ? cols : cfg.vector_size;
        const Tensor base = tiedActivations(rng, rows, cols, vec);

        Tensor want = base;
        const reference::SicMaps ref =
            reference::sicGatherMaps(want, coords, cfg);

        // The same rows at row 2 and column 0 of a wider buffer.
        const int64_t ld = cols + 5;
        Tensor packed = randomActivations(rng, rows + 3, ld);
        for (int64_t i = 0; i < rows; ++i) {
            std::copy(base.row(i), base.row(i) + cols, packed.row(2 + i));
        }
        const Tensor before = packed;
        const SicResult got = sicGather(
            packed.row(2), cols, ld, sicNeighbours(coords, cfg), cfg);

        EXPECT_EQ(got.total_vectors, ref.total_vectors);
        EXPECT_EQ(got.unique_vectors, ref.unique_vectors);
        EXPECT_EQ(got.tile_slice_unique_frac, ref.tile_slice_unique_frac);
        for (int64_t i = 0; i < rows + 3; ++i) {
            for (int64_t j = 0; j < ld; ++j) {
                const bool gathered = i >= 2 && i < 2 + rows && j < cols;
                const float e = gathered ? want(i - 2, j) : before(i, j);
                ASSERT_EQ(std::memcmp(&packed(i, j), &e, sizeof(float)),
                          0)
                    << "row " << i << " col " << j;
            }
        }

        Tensor via_tensor = base;
        const SicResult t = sicGather(via_tensor, coords, cfg);
        EXPECT_EQ(t.unique_vectors, ref.unique_vectors);
        EXPECT_EQ(maxAbsDiff(via_tensor, want), 0.0);

        matched += ref.total_vectors - ref.unique_vectors;
        short_tiles += cfg.m_tile < rows ? 1 : 0;
    }
    // The draws matched vectors and split layouts into m tiles.
    EXPECT_GT(matched, 1000);
    EXPECT_GT(short_tiles, 100);
}

TEST(SicGather, IdenticalNeighboursDeduplicate)
{
    // Two frames of 2x2, all tokens identical: every token whose
    // block has an in-tile predecessor should match.
    const auto coords = rasterCoords(2, 2, 2);
    Tensor x(8, 32);
    for (int64_t i = 0; i < 8; ++i) {
        for (int64_t j = 0; j < 32; ++j) {
            x(i, j) = static_cast<float>(j) * 0.1f + 1.0f;
        }
    }
    SicConfig cfg;
    const SicResult res = sicGather(x, coords, cfg);
    // Only token (0,0,0) has no predecessor: 1 unique vector.
    EXPECT_EQ(res.unique_vectors, 1);
    EXPECT_EQ(res.total_vectors, 8);
}

TEST(SicGather, OrthogonalRowsAllUnique)
{
    const auto coords = rasterCoords(2, 2, 2);
    Tensor x(8, 32);
    for (int64_t i = 0; i < 8; ++i) {
        x(i, i * 4) = 1.0f; // mutually orthogonal
    }
    SicConfig cfg;
    const SicResult res = sicGather(x, coords, cfg);
    EXPECT_EQ(res.unique_vectors, 8);
    EXPECT_DOUBLE_EQ(res.uniqueFrac(), 1.0);
}

TEST(SicGather, MatchedRowsGetRepresentativeValues)
{
    const auto coords = rasterCoords(1, 1, 2);
    Tensor x(2, 32);
    for (int64_t j = 0; j < 32; ++j) {
        x(0, j) = static_cast<float>(j + 1);
        x(1, j) = static_cast<float>(j + 1) * 1.02f; // cosine ~1
    }
    SicConfig cfg;
    cfg.block_f = 1;
    cfg.block_h = 1;
    cfg.block_w = 2;
    const SicResult res = sicGather(x, coords, cfg);
    EXPECT_EQ(res.unique_vectors, 1);
    for (int64_t j = 0; j < 32; ++j) {
        EXPECT_EQ(x(1, j), x(0, j)); // replaced by representative
    }
}

TEST(SicGather, ThresholdControlsMatching)
{
    const auto coords = rasterCoords(1, 1, 2);
    Tensor x(2, 32);
    for (int64_t j = 0; j < 32; ++j) {
        x(0, j) = 1.0f;
        x(1, j) = 1.0f;
    }
    x(1, 0) = -3.0f; // decorrelate (cos ~ 0.78)
    SicConfig strict;
    strict.block_f = 1;
    strict.block_h = 1;
    strict.block_w = 2;
    Tensor x1 = x;
    EXPECT_EQ(sicGather(x1, coords, strict).unique_vectors, 2);

    SicConfig loose = strict;
    loose.threshold = 0.3f;
    Tensor x2 = x;
    EXPECT_EQ(sicGather(x2, coords, loose).unique_vectors, 1);
}

TEST(SicGather, TextRowsNeverMatch)
{
    std::vector<TokenCoord> coords = {TokenCoord{0, 0, 0},
                                      TokenCoord{-1, 0, 0},
                                      TokenCoord{-1, 0, 0}};
    Tensor x(3, 32);
    for (int64_t i = 0; i < 3; ++i) {
        for (int64_t j = 0; j < 32; ++j) {
            x(i, j) = 1.0f;
        }
    }
    SicConfig cfg;
    const SicResult res = sicGather(x, coords, cfg);
    EXPECT_EQ(res.unique_vectors, 3);
}

TEST(SicGather, TileBoundaryBlocksMatching)
{
    // Identical adjacent tokens, but a 1-row tile: no comparisons
    // can happen (the Fig. 10(a) boundary effect taken to the
    // extreme).
    const auto coords = rasterCoords(1, 1, 4);
    Tensor x(4, 32);
    for (int64_t i = 0; i < 4; ++i) {
        for (int64_t j = 0; j < 32; ++j) {
            x(i, j) = 1.0f;
        }
    }
    SicConfig cfg;
    cfg.block_f = 1;
    cfg.block_h = 1;
    cfg.block_w = 2;
    cfg.m_tile = 1;
    EXPECT_EQ(sicGather(x, coords, cfg).unique_vectors, 4);

    cfg.m_tile = 4;
    Tensor x2 = x;
    for (int64_t i = 0; i < 4; ++i) {
        for (int64_t j = 0; j < 32; ++j) {
            x2(i, j) = 1.0f;
        }
    }
    EXPECT_EQ(sicGather(x2, coords, cfg).unique_vectors, 1);
}

TEST(SicGather, SmallerTilesNeverIncreaseMatching)
{
    Rng rng(42);
    const auto coords = rasterCoords(2, 4, 4);
    Tensor base = randomActivations(rng, 32, 64);
    // Correlate neighbours so matches exist.
    for (int64_t i = 1; i < 32; ++i) {
        for (int64_t j = 0; j < 64; ++j) {
            base(i, j) = 0.9f * base(i - 1, j) + 0.1f * base(i, j);
        }
    }
    SicConfig cfg;
    int64_t prev_unique = -1;
    for (int64_t tile : {32, 16, 8, 4}) {
        cfg.m_tile = tile;
        Tensor x = base;
        const SicResult res = sicGather(x, coords, cfg);
        if (prev_unique >= 0) {
            EXPECT_GE(res.unique_vectors, prev_unique)
                << "tile " << tile;
        }
        prev_unique = res.unique_vectors;
    }
}

TEST(SicGather, VectorWiseFindsAtLeastTokenWise)
{
    // Property (Fig. 2(c)): vector granularity removes at least as
    // many vectors (fractionally) as token granularity.
    Rng rng(7);
    const auto coords = rasterCoords(2, 5, 5);
    Tensor base = randomActivations(rng, 50, 64);
    for (int64_t i = 25; i < 50; ++i) {
        // Second frame resembles the first with partial-slice noise.
        for (int64_t j = 0; j < 64; ++j) {
            base(i, j) = base(i - 25, j);
        }
        for (int64_t j = 0; j < 16; ++j) {
            base(i, j) += static_cast<float>(rng.gaussian(0.0, 2.0));
        }
    }
    SicConfig vec_cfg;
    Tensor xv = base;
    const double vec_frac =
        sicGather(xv, coords, vec_cfg).uniqueFrac();

    SicConfig tok_cfg;
    tok_cfg.token_wise = true;
    Tensor xt = base;
    const double tok_frac =
        sicGather(xt, coords, tok_cfg).uniqueFrac();

    EXPECT_LE(vec_frac, tok_frac + 1e-9);
}

TEST(SicGather, MapsAreConsistent)
{
    Rng rng(11);
    const auto coords = rasterCoords(2, 4, 4);
    Tensor x = randomActivations(rng, 32, 64);
    for (int64_t i = 16; i < 32; ++i) {
        for (int64_t j = 0; j < 64; ++j) {
            x(i, j) = x(i - 16, j) * 1.01f;
        }
    }
    SicConfig cfg;
    const reference::SicMaps res =
        reference::sicGatherMaps(x, coords, cfg);
    for (const reference::SliceMap &map : res.maps) {
        ASSERT_EQ(static_cast<int64_t>(map.compact_index.size()),
                  map.rows);
        for (int64_t i = 0; i < map.rows; ++i) {
            const int32_t ci =
                map.compact_index[static_cast<size_t>(i)];
            EXPECT_GE(ci, 0);
            EXPECT_LT(ci, map.unique);
        }
        // Compact indices appear in ascending first-use order.
        int32_t next = 0;
        for (int64_t i = 0; i < map.rows; ++i) {
            const int32_t ci =
                map.compact_index[static_cast<size_t>(i)];
            if (ci == next) {
                ++next;
            } else {
                EXPECT_LT(ci, next);
            }
        }
        EXPECT_EQ(next, map.unique);
    }
}

TEST(SicScatter, RoundTripIsLossless)
{
    Rng rng(13);
    const auto coords = rasterCoords(2, 4, 4);
    Tensor x = randomActivations(rng, 32, 64);
    for (int64_t i = 16; i < 32; ++i) {
        for (int64_t j = 0; j < 64; ++j) {
            x(i, j) = x(i - 16, j);
        }
    }
    SicConfig cfg;
    const reference::SicMaps res =
        reference::sicGatherMaps(x, coords, cfg);
    ASSERT_LT(res.unique_vectors, res.total_vectors);

    const std::vector<Tensor> compact =
        reference::sicCompactBuffers(x, res);
    const Tensor rebuilt = reference::sicScatter(res, compact, 32, 64);
    EXPECT_LT(maxAbsDiff(rebuilt, x), 1e-9);
}

TEST(SicGather, BlockExtentWidensMatching)
{
    // A token similar to its (f-1) neighbour two frames back is only
    // matched when the temporal block extent covers it.
    Rng rng(17);
    const auto coords = rasterCoords(3, 2, 2);
    Tensor base = randomActivations(rng, 12, 32);
    // Frame 2 equals frame 0 but differs from frame 1.
    for (int64_t i = 8; i < 12; ++i) {
        for (int64_t j = 0; j < 32; ++j) {
            base(i, j) = base(i - 8, j);
        }
    }
    SicConfig small;
    small.block_f = 2;
    Tensor x1 = base;
    const int64_t u2 = sicGather(x1, coords, small).unique_vectors;

    SicConfig big = small;
    big.block_f = 3;
    Tensor x2 = base;
    const int64_t u3 = sicGather(x2, coords, big).unique_vectors;
    EXPECT_LE(u3, u2);
    EXPECT_LT(u3, 12);
}

TEST(SicGather, UniqueFracStatsMatchCounts)
{
    Rng rng(19);
    const auto coords = rasterCoords(2, 3, 3);
    Tensor x = randomActivations(rng, 18, 64);
    SicConfig cfg;
    const reference::SicMaps res =
        reference::sicGatherMaps(x, coords, cfg);
    double total = 0.0;
    for (const reference::SliceMap &m : res.maps) {
        total += static_cast<double>(m.unique);
    }
    EXPECT_DOUBLE_EQ(total,
                     static_cast<double>(res.unique_vectors));
    EXPECT_EQ(res.maps.size(), res.tile_slice_unique_frac.size());
}

} // namespace
} // namespace focus
