/**
 * @file
 * Tests for the systolic-array cycle model: dense timing formula,
 * concentrated-input savings, scatter/matcher stalls, SEC overlap.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/systolic.h"

namespace focus
{
namespace
{

FracSampler
constSampler(double v)
{
    return FracSampler(nullptr, v);
}

TEST(Systolic, DenseCycleFormula)
{
    // One tile, m=1024, K=3584, N=32 on a 32x32 array:
    // b (first load) + K/b subtiles * (m + fill).
    TileLengthHistogram hist;
    AccelConfig cfg = AccelConfig::systolicArray();
    FracSampler psi = constSampler(1.0);
    const GemmTiming t = timeGemm(cfg, 1024, 3584, 32, psi, false,
                                  false, hist);
    const uint64_t fill = 31 + 31;
    const uint64_t expect = 32 + 112 * (1024 + fill);
    EXPECT_EQ(t.cycles, expect);
    EXPECT_DOUBLE_EQ(t.mac_ops, 1024.0 * 3584 * 32);
}

TEST(Systolic, PaperAsymptoticCostKOverBTimesM)
{
    // Sec. VI-A: GEMM takes K/b * m cycles per tile, far exceeding
    // the 8m matcher cost for K = 3584.
    TileLengthHistogram hist;
    AccelConfig cfg = AccelConfig::focus();
    FracSampler psi = constSampler(1.0);
    const GemmTiming t = timeGemm(cfg, 1024, 3584, 32, psi, false,
                                  false, hist);
    const double asym = 3584.0 / 32 * 1024;
    EXPECT_NEAR(static_cast<double>(t.cycles), asym, 0.1 * asym);
}

TEST(Systolic, ConcentratedInputReducesCycles)
{
    TileLengthHistogram hist;
    AccelConfig cfg = AccelConfig::focus();
    FracSampler dense = constSampler(1.0);
    FracSampler half = constSampler(0.5);
    const GemmTiming td =
        timeGemm(cfg, 1024, 3584, 3584, dense, false, false, hist);
    const GemmTiming th =
        timeGemm(cfg, 1024, 3584, 3584, half, true, false, hist);
    EXPECT_LT(th.cycles, td.cycles);
    EXPECT_NEAR(static_cast<double>(th.cycles),
                0.5 * static_cast<double>(td.cycles),
                0.2 * static_cast<double>(td.cycles));
    EXPECT_GT(hist.size(), 0u);
}

TEST(Systolic, ScatterStallsWithFewAccumulators)
{
    TileLengthHistogram hist;
    AccelConfig cfg = AccelConfig::focus();
    cfg.scatter_accumulators = 8; // tiny
    FracSampler psi = constSampler(0.3);
    const GemmTiming t =
        timeGemm(cfg, 1024, 3584, 32, psi, true, false, hist);
    EXPECT_GT(t.stall_scatter, 0u);

    AccelConfig wide = AccelConfig::focus();
    wide.scatter_accumulators = 160;
    FracSampler psi2 = constSampler(0.3);
    const GemmTiming t2 =
        timeGemm(wide, 1024, 3584, 32, psi2, true, false, hist);
    EXPECT_LT(t2.cycles, t.cycles);
}

TEST(Systolic, AccumulatorSweepMatchesFig10d)
{
    // At the paper's operating concentration (~psi 0.6), 64
    // accumulators are within a few percent of 160 while 32 stall
    // roughly 1.5x (Fig. 10(d)).
    TileLengthHistogram hist;
    AccelConfig cfg = AccelConfig::focus();
    FracSampler p64 = constSampler(0.6);
    cfg.scatter_accumulators = 64;
    const uint64_t c64 =
        timeGemm(cfg, 1024, 3584, 3584, p64, true, false, hist).cycles;
    cfg.scatter_accumulators = 160;
    FracSampler p160 = constSampler(0.6);
    const uint64_t c160 =
        timeGemm(cfg, 1024, 3584, 3584, p160, true, false, hist).cycles;
    cfg.scatter_accumulators = 32;
    FracSampler p32 = constSampler(0.6);
    const uint64_t c32 =
        timeGemm(cfg, 1024, 3584, 3584, p32, true, false, hist).cycles;
    EXPECT_LE(static_cast<double>(c64),
              1.08 * static_cast<double>(c160));
    EXPECT_GT(static_cast<double>(c32),
              1.30 * static_cast<double>(c160));
    EXPECT_LT(static_cast<double>(c32),
              1.80 * static_cast<double>(c160));
}

TEST(Systolic, MatcherOffCriticalPathForLargeK)
{
    // K = 3584 >> 256: gather adds no stall (Sec. VI-A).
    TileLengthHistogram hist;
    AccelConfig cfg = AccelConfig::focus();
    FracSampler psi = constSampler(1.0);
    const GemmTiming t =
        timeGemm(cfg, 1024, 3584, 32, psi, false, true, hist);
    EXPECT_EQ(t.stall_matcher, 0u);
}

TEST(Systolic, MatcherStallsForSmallK)
{
    // K = 128 < 256: the paper's corner case; a single matcher
    // stalls, extra matchers recover.
    TileLengthHistogram hist;
    AccelConfig cfg = AccelConfig::focus();
    cfg.sic_matchers = 1;
    FracSampler psi = constSampler(1.0);
    const GemmTiming t1 =
        timeGemm(cfg, 1024, 128, 32, psi, false, true, hist);
    EXPECT_GT(t1.stall_matcher, 0u);

    cfg.sic_matchers = 4;
    FracSampler psi2 = constSampler(1.0);
    const GemmTiming t4 =
        timeGemm(cfg, 1024, 128, 32, psi2, false, true, hist);
    EXPECT_LT(t4.stall_matcher, t1.stall_matcher);
}

TEST(Systolic, UtilizationBounded)
{
    TileLengthHistogram hist;
    AccelConfig cfg = AccelConfig::focus();
    FracSampler psi = constSampler(0.8);
    const GemmTiming t =
        timeGemm(cfg, 4096, 3584, 3584, psi, true, true, hist);
    EXPECT_GT(t.utilization(cfg), 0.0);
    EXPECT_LE(t.utilization(cfg), 1.0);
}

TEST(Systolic, EmpiricalDistributionSampled)
{
    TileLengthHistogram hist;
    AccelConfig cfg = AccelConfig::focus();
    std::vector<double> fracs = {0.25, 0.75};
    FracSampler psi(&fracs, 1.0);
    timeGemm(cfg, 2048, 64, 32, psi, true, false, hist);
    // Two m-tiles x two k-subtiles alternate 0.25/0.75 of 1024: p 256
    // and 768, bins 4 and 12 of 16.
    ASSERT_EQ(hist.size(), 4u);
    EXPECT_EQ(hist.counts[4], 2u);
    EXPECT_EQ(hist.counts[12], 2u);
}

TEST(Systolic, SecSorterOverlappedAtPaperDims)
{
    // M = 6272, T = 109, h = 128, n = 28 heads, k = 2509 (40%):
    // the sorter hides fully behind image-query attention.
    AccelConfig cfg = AccelConfig::focus();
    EXPECT_EQ(secSorterStall(cfg, 6272, 109, 128, 28, 2509), 0u);
}

TEST(Systolic, SecSorterStallsForDegenerateDims)
{
    // Tiny head dim and single head: sorting cannot hide.
    AccelConfig cfg = AccelConfig::focus();
    EXPECT_GT(secSorterStall(cfg, 6272, 4, 1, 1, 6000), 0u);
}

TEST(Systolic, ZeroDimsAreNoop)
{
    TileLengthHistogram hist;
    AccelConfig cfg = AccelConfig::focus();
    FracSampler psi = constSampler(1.0);
    const GemmTiming t = timeGemm(cfg, 0, 128, 32, psi, false, false, hist);
    EXPECT_EQ(t.cycles, 0u);
    EXPECT_EQ(secSorterStall(cfg, 100, 8, 64, 8, 0), 0u);
}

} // namespace
} // namespace focus
