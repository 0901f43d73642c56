/**
 * @file
 * Tests for the end-to-end accelerator model: speedups, traffic
 * behaviours per architecture, energy composition, and area.
 */

#include <gtest/gtest.h>

#include "sim/accel_model.h"
#include "sim/area.h"
#include "sim/gpu_model.h"
#include "sim/systolic.h"

namespace focus
{
namespace
{

FunctionalAggregate
flatAggregate(int layers, double keep, double psi)
{
    FunctionalAggregate agg;
    agg.reduced_layers = layers;
    agg.keep_in.assign(static_cast<size_t>(layers), keep);
    agg.keep_out.assign(static_cast<size_t>(layers), keep);
    agg.psi_qkv.assign(static_cast<size_t>(layers), psi);
    agg.psi_oproj.assign(static_cast<size_t>(layers), psi);
    agg.psi_ffn.assign(static_cast<size_t>(layers), psi);
    agg.psi_down.assign(static_cast<size_t>(layers), psi);
    return agg;
}

struct Traces
{
    ModelProfile mp = modelProfile("Llava-Vid");
    DatasetProfile dp = datasetProfile("VideoMME");
    WorkloadTrace dense = buildDenseTrace(mp, dp);
    WorkloadTrace focus = buildTrace(mp, dp, MethodConfig::focusFull(),
                                     flatAggregate(mp.layers, 1.0,
                                                   0.5));
    WorkloadTrace cmc = buildTrace(mp, dp, MethodConfig::cmcBaseline(),
                                   flatAggregate(mp.layers, 0.53,
                                                 1.0));
    WorkloadTrace adaptiv =
        buildTrace(mp, dp, MethodConfig::adaptivBaseline(),
                   flatAggregate(mp.layers, 0.55, 1.0));
};

TEST(AccelModel, FocusSpeedupInPaperBand)
{
    Traces t;
    const RunMetrics sa = simulateAccelerator(
        AccelConfig::systolicArray(), t.dense);
    const RunMetrics fo =
        simulateAccelerator(AccelConfig::focus(), t.focus);
    const double speedup = static_cast<double>(sa.cycles) / fo.cycles;
    // Paper: 4.47x mean over the dense systolic array.
    EXPECT_GT(speedup, 3.0);
    EXPECT_LT(speedup, 7.0);
}

TEST(AccelModel, CmcTrafficPenaltyVsCompute)
{
    // CMC achieves ~47% token reduction but pays the codec round
    // trip: its activation traffic ratio to dense should be far
    // worse than its compute ratio (Sec. VII-F: 46% sparsity yet 79%
    // of dense traffic).
    Traces t;
    const RunMetrics sa = simulateAccelerator(
        AccelConfig::systolicArray(), t.dense);
    const RunMetrics cmc = simulateAccelerator(AccelConfig::cmc(),
                                               t.cmc);
    const double traffic_ratio =
        static_cast<double>(cmc.dramActivationBytes()) /
        static_cast<double>(sa.dramActivationBytes());
    const double compute_ratio = cmc.mac_ops / sa.mac_ops;
    // Our traffic accounting includes tiling re-reads (which CMC's
    // token-condensed format still benefits from), so the gap is
    // smaller than the paper's stricter write-once/read-once
    // accounting (0.79 traffic at 0.54 compute); the direction must
    // hold regardless.
    EXPECT_GT(traffic_ratio, compute_ratio + 0.04);
    EXPECT_GT(traffic_ratio, 0.55);
    EXPECT_LT(traffic_ratio, 1.05);
}

TEST(AccelModel, FocusTrafficInPaperBand)
{
    // Fig. 12: Focus cuts DRAM access to ~0.2x of dense.
    Traces t;
    const RunMetrics sa = simulateAccelerator(
        AccelConfig::systolicArray(), t.dense);
    const RunMetrics fo =
        simulateAccelerator(AccelConfig::focus(), t.focus);
    const double ratio =
        static_cast<double>(fo.dramTotalBytes()) /
        static_cast<double>(sa.dramTotalBytes());
    EXPECT_GT(ratio, 0.10);
    EXPECT_LT(ratio, 0.40);
}

TEST(AccelModel, EnergyComponentsPositiveAndOrdered)
{
    Traces t;
    const RunMetrics sa = simulateAccelerator(
        AccelConfig::systolicArray(), t.dense);
    EXPECT_GT(sa.energy.core, 0.0);
    EXPECT_GT(sa.energy.buffer, 0.0);
    EXPECT_GT(sa.energy.dram, 0.0);
    EXPECT_EQ(sa.energy.sec, 0.0);
    EXPECT_EQ(sa.energy.sic, 0.0);

    const RunMetrics fo =
        simulateAccelerator(AccelConfig::focus(), t.focus);
    EXPECT_GT(fo.energy.sec, 0.0);
    EXPECT_GT(fo.energy.sic, 0.0);
    // Focus unit energy is a small fraction (Fig. 9(c)).
    EXPECT_LT(fo.energy.sec + fo.energy.sic,
              0.1 * fo.energy.total());
    // Total energy improves on dense.
    EXPECT_LT(fo.energy.total(), 0.5 * sa.energy.total());
}

TEST(AccelModel, UtilizationHighForDenseAndFocus)
{
    Traces t;
    const RunMetrics sa = simulateAccelerator(
        AccelConfig::systolicArray(), t.dense);
    EXPECT_GT(sa.utilization, 0.7);
    EXPECT_LE(sa.utilization, 1.0);
    const RunMetrics fo =
        simulateAccelerator(AccelConfig::focus(), t.focus);
    // Fig. 13: average utilization ~0.92 despite concentration.
    EXPECT_GT(fo.utilization, 0.6);
}

TEST(AccelModel, TileLengthsRecordedOnlyForSic)
{
    Traces t;
    const RunMetrics sa = simulateAccelerator(
        AccelConfig::systolicArray(), t.dense);
    EXPECT_TRUE(sa.tile_lengths.empty());
    const RunMetrics fo =
        simulateAccelerator(AccelConfig::focus(), t.focus);
    EXPECT_FALSE(fo.tile_lengths.empty());
}

TEST(AccelModel, SecStallZeroAtPaperScale)
{
    Traces t;
    const RunMetrics fo =
        simulateAccelerator(AccelConfig::focus(), t.focus);
    EXPECT_EQ(fo.stall_sec, 0u);
}

TEST(AccelModel, MeanInputFracTracksConcentration)
{
    Traces t;
    const RunMetrics sa = simulateAccelerator(
        AccelConfig::systolicArray(), t.dense);
    const RunMetrics fo =
        simulateAccelerator(AccelConfig::focus(), t.focus);
    EXPECT_NEAR(sa.mean_input_frac, 1.0, 0.05);
    EXPECT_LT(fo.mean_input_frac, 0.45);
}

TEST(GpuModel, SlowerThanSystolicDense)
{
    // Paper: Focus is 7.9x over the GPU but 4.47x over the SA, so
    // the GPU is ~0.57x the SA's speed on dense work.
    Traces t;
    const RunMetrics sa = simulateAccelerator(
        AccelConfig::systolicArray(), t.dense);
    const double t_gpu = gpuSeconds(t.dense, GpuConfig{}, false);
    const double ratio = sa.seconds() / t_gpu;
    EXPECT_GT(ratio, 0.35);
    EXPECT_LT(ratio, 0.85);
}

TEST(GpuModel, TokenReductionHelps)
{
    Traces t;
    const WorkloadTrace ff =
        buildTrace(t.mp, t.dp, MethodConfig::frameFusionBaseline(),
                   flatAggregate(t.mp.layers, 0.33, 1.0));
    const GpuConfig gpu;
    const double dense_s = gpuSeconds(t.dense, gpu, false);
    const double ff_s = gpuSeconds(ff, gpu, true);
    EXPECT_LT(ff_s, dense_s);
    EXPECT_GT(dense_s / ff_s, 2.0);
    EXPECT_LT(dense_s / ff_s, 4.5);
}

// ---------------------------------------------------------------
// Area model (Tbl. III)
// ---------------------------------------------------------------

TEST(Area, MatchesTableIII)
{
    EXPECT_NEAR(totalArea(AccelConfig::systolicArray()), 3.12, 0.06);
    EXPECT_NEAR(totalArea(AccelConfig::focus()), 3.21, 0.06);
    EXPECT_NEAR(totalArea(AccelConfig::adaptiv()), 3.38, 0.08);
    EXPECT_NEAR(totalArea(AccelConfig::cmc()), 3.58, 0.08);
}

TEST(Area, FocusUnitOverheadSmall)
{
    // Paper: Focus unit is ~2.7% of the systolic-array design.
    const double base = totalArea(AccelConfig::systolicArray());
    const double focus = totalArea(AccelConfig::focus());
    const double overhead = (focus - base) / base;
    EXPECT_GT(overhead, 0.015);
    EXPECT_LT(overhead, 0.04);
}

TEST(Area, BreakdownSharesMatchFig9c)
{
    const auto parts = areaBreakdown(AccelConfig::focus());
    const double total = totalArea(AccelConfig::focus());
    EXPECT_NEAR(parts.at("systolic_array") / total, 0.44, 0.05);
    EXPECT_NEAR(parts.at("buffer") / total, 0.43, 0.05);
    EXPECT_NEAR(parts.at("sfu") / total, 0.10, 0.03);
    EXPECT_NEAR(parts.at("sec") / total, 0.019, 0.008);
    EXPECT_NEAR(parts.at("sic") / total, 0.008, 0.005);
}

/**
 * Hand-built single-layer trace whose one SIC GEMM draws more tile
 * lengths than the Fig. 13 recording cap (204,800 > 200,000 for the
 * Focus geometry: 2 m-tiles x 3200 n-tiles x 32 k-sub-tiles).
 */
WorkloadTrace
capOvershootTrace()
{
    WorkloadTrace tr;
    tr.method = "focus";
    tr.visual0 = 2048;
    tr.visual_original = 2048;
    tr.hidden = 1024;
    tr.heads = 8;
    tr.head_dim = 128;
    tr.ffn_inner = 4096;
    tr.tile_fracs = {0.3, 0.7, 0.5};
    LayerEvents layer;
    layer.visual_in = 2048;
    layer.visual_out = 2048;
    GemmEvent g;
    g.site = GemmSite::Qkv;
    g.m = 2048;
    g.k = 1024;
    g.n = 102400;
    g.psi_in = 0.5;
    layer.gemms.push_back(g);
    tr.layers.push_back(layer);
    return tr;
}

TEST(AccelModel, TileLengthRecordingStopsExactlyAtCap)
{
    // The trace's one SIC GEMM draws past the cap; the log must stop
    // exactly at it.
    const WorkloadTrace tr = capOvershootTrace();
    const RunMetrics rm = simulateAccelerator(AccelConfig::focus(), tr);
    EXPECT_EQ(rm.tile_lengths.size(), 200000u);
}

TEST(AccelModelDeathTest, PanicsOnNonPositiveConfigDimensions)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const WorkloadTrace dense = buildDenseTrace(mp, dp);

    AccelConfig bad_rows = AccelConfig::systolicArray();
    bad_rows.array_rows = 0;
    EXPECT_DEATH(simulateAccelerator(bad_rows, dense),
                 "non-positive");

    AccelConfig bad_cols = AccelConfig::systolicArray();
    bad_cols.array_cols = -32;
    EXPECT_DEATH(simulateAccelerator(bad_cols, dense),
                 "non-positive");

    AccelConfig bad_mtile = AccelConfig::focus();
    bad_mtile.m_tile = 0;
    EXPECT_DEATH(simulateAccelerator(bad_mtile, dense),
                 "non-positive");

    AccelConfig bad_lanes = AccelConfig::focus();
    bad_lanes.sec_lanes = -1;
    EXPECT_DEATH(simulateAccelerator(bad_lanes, dense),
                 "non-positive");
}

} // namespace
} // namespace focus
