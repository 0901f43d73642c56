/**
 * @file
 * Tests for full-scale trace construction: dense analytics, the SEC
 * token schedule, psi mapping, baseline keep propagation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/trace.h"

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

TEST(Trace, DenseMacsMatchAnalytic)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const WorkloadTrace tr = buildDenseTrace(mp, dp);
    ASSERT_EQ(static_cast<int64_t>(tr.layers.size()), mp.full_layers);

    const double rows = static_cast<double>(dp.full_visual_tokens +
                                            dp.full_text_tokens);
    const double d = static_cast<double>(mp.full_hidden);
    const double inner = static_cast<double>(mp.full_ffn_inner);
    const double per_layer = 3 * rows * d * d + 2 * rows * rows * d +
        rows * d * d + 2 * rows * d * inner + rows * inner * d;
    EXPECT_NEAR(tr.totalMacs(),
                per_layer * static_cast<double>(mp.full_layers),
                1e-6 * tr.totalMacs());
}

TEST(Trace, FocusFollowsRetentionSchedule)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const FunctionalAggregate agg = flatAggregate(mp.layers, 1.0, 0.5);
    const WorkloadTrace tr =
        buildTrace(mp, dp, MethodConfig::focusFull(), agg);

    const int64_t m = dp.full_visual_tokens;
    EXPECT_EQ(tr.layers[0].visual_in, m);
    EXPECT_EQ(tr.layers[2].visual_out, m);
    // Layer 3 prunes to 40%.
    EXPECT_EQ(tr.layers[3].visual_out,
              static_cast<int64_t>(std::llround(0.40 * m)));
    EXPECT_EQ(tr.layers[3].sec_topk, tr.layers[3].visual_out);
    EXPECT_EQ(tr.layers[9].visual_out,
              static_cast<int64_t>(std::llround(0.20 * m)));
    EXPECT_EQ(tr.layers[26].visual_out,
              static_cast<int64_t>(std::llround(0.10 * m)));
    // No pruning events besides the schedule.
    EXPECT_EQ(tr.layers[10].sec_topk, 0);
}

TEST(Trace, FocusSparsityInPaperBand)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const FunctionalAggregate agg =
        flatAggregate(mp.layers, 1.0, 0.55);
    const WorkloadTrace focus =
        buildTrace(mp, dp, MethodConfig::focusFull(), agg);
    const WorkloadTrace dense = buildDenseTrace(mp, dp);
    const double sparsity = 1.0 - focus.totalMacs() / dense.totalMacs();
    EXPECT_GT(sparsity, 0.75);
    EXPECT_LT(sparsity, 0.92);
}

TEST(Trace, BaselineKeepAppliesAtInput)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const FunctionalAggregate agg =
        flatAggregate(mp.layers, 0.5, 1.0);
    const WorkloadTrace tr =
        buildTrace(mp, dp, MethodConfig::cmcBaseline(), agg);
    const int64_t expect = static_cast<int64_t>(
        std::llround(0.5 * dp.full_visual_tokens));
    EXPECT_EQ(tr.visual0, expect);
    for (const LayerEvents &l : tr.layers) {
        EXPECT_EQ(l.visual_in, expect);
        EXPECT_EQ(l.visual_out, expect);
        EXPECT_EQ(l.sec_topk, 0);
    }
}

TEST(Trace, PsiAppearsOnlyWithSic)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const FunctionalAggregate agg =
        flatAggregate(mp.layers, 1.0, 0.4);

    const WorkloadTrace focus =
        buildTrace(mp, dp, MethodConfig::focusFull(), agg);
    bool saw_psi = false;
    for (const GemmEvent &g : focus.layers[5].gemms) {
        if (g.psi_in < 1.0) {
            saw_psi = true;
        }
    }
    EXPECT_TRUE(saw_psi);

    const WorkloadTrace sec_only =
        buildTrace(mp, dp, MethodConfig::focusSecOnly(), agg);
    for (const LayerEvents &l : sec_only.layers) {
        for (const GemmEvent &g : l.gemms) {
            EXPECT_DOUBLE_EQ(g.psi_in, 1.0);
            EXPECT_FALSE(g.gather_out);
        }
    }
}

TEST(Trace, QkvAtLayerZeroIsDense)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const FunctionalAggregate agg =
        flatAggregate(mp.layers, 1.0, 0.4);
    const WorkloadTrace tr =
        buildTrace(mp, dp, MethodConfig::focusFull(), agg);
    EXPECT_DOUBLE_EQ(tr.layers[0].gemms[0].psi_in, 1.0);
    EXPECT_LT(tr.layers[1].gemms[0].psi_in, 1.0);
}

TEST(Trace, GemmDimsConsistent)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const WorkloadTrace tr = buildDenseTrace(mp, dp);
    for (const LayerEvents &l : tr.layers) {
        ASSERT_EQ(l.gemms.size(), 6u);
        const GemmEvent &qk = l.gemms[1];
        EXPECT_EQ(qk.site, GemmSite::Qk);
        EXPECT_EQ(qk.m, l.rowsIn());
        EXPECT_EQ(qk.n, l.rowsIn());
        EXPECT_EQ(qk.k, mp.full_head_dim);
        EXPECT_EQ(qk.count, static_cast<int>(mp.full_heads));
        const GemmEvent &down = l.gemms[5];
        EXPECT_EQ(down.k, mp.full_ffn_inner);
        EXPECT_EQ(down.n, mp.full_hidden);
    }
}

TEST(Trace, SiteNamesResolve)
{
    EXPECT_STREQ(gemmSiteName(GemmSite::Qkv), "qkv");
    EXPECT_STREQ(gemmSiteName(GemmSite::Down), "down");
}

// ---- standalone construction invariants (previously only ----
// ---- exercised indirectly through the Evaluator benches)  ----

TEST(Trace, PerLayerMacsMatchAnalytic)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const WorkloadTrace tr = buildDenseTrace(mp, dp);
    const double d = static_cast<double>(mp.full_hidden);
    const double hd = static_cast<double>(mp.full_head_dim);
    const double h = static_cast<double>(mp.full_heads);
    const double inner = static_cast<double>(mp.full_ffn_inner);
    for (const LayerEvents &l : tr.layers) {
        const double rows = static_cast<double>(l.rowsIn());
        const double expect = 3 * rows * d * d +
            2 * h * rows * rows * hd + rows * d * d +
            2 * rows * d * inner + rows * inner * d;
        double got = 0.0;
        for (const GemmEvent &g : l.gemms) {
            got += g.macs();
        }
        EXPECT_NEAR(got, expect, 1e-9 * expect);
    }
}

TEST(Trace, SecRetentionScheduleMonotone)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const FunctionalAggregate agg = flatAggregate(mp.layers, 1.0, 0.5);
    const WorkloadTrace tr =
        buildTrace(mp, dp, MethodConfig::focusFull(), agg);
    for (size_t l = 0; l < tr.layers.size(); ++l) {
        const LayerEvents &le = tr.layers[l];
        // Retention only shrinks the active set, never grows it.
        EXPECT_LE(le.visual_out, le.visual_in);
        // Active rows chain: this layer's survivors enter the next.
        if (l + 1 < tr.layers.size()) {
            EXPECT_EQ(tr.layers[l + 1].visual_in, le.visual_out);
        }
        // A pruning event records exactly the survivor count.
        if (le.sec_topk > 0) {
            EXPECT_EQ(le.sec_topk, le.visual_out);
            EXPECT_LT(le.visual_out, le.visual_in);
        } else {
            EXPECT_EQ(le.visual_out, le.visual_in);
        }
    }
}

TEST(Trace, ActiveRowCountsDriveGemmShapes)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const FunctionalAggregate agg = flatAggregate(mp.layers, 1.0, 0.6);
    const WorkloadTrace tr =
        buildTrace(mp, dp, MethodConfig::focusFull(), agg);
    for (const LayerEvents &l : tr.layers) {
        ASSERT_EQ(l.gemms.size(), 6u);
        EXPECT_EQ(l.gemms[0].m, l.rowsIn());   // QKV
        EXPECT_EQ(l.gemms[1].m, l.rowsIn());   // QK
        EXPECT_EQ(l.gemms[2].m, l.rowsOut());  // PV: survivors only
        EXPECT_EQ(l.gemms[2].k, l.rowsIn());
        EXPECT_EQ(l.gemms[3].m, l.rowsOut());  // O-proj
        EXPECT_EQ(l.gemms[4].m, l.rowsOut());  // gate/up
        EXPECT_EQ(l.gemms[5].m, l.rowsOut());  // down
    }
}

TEST(Trace, RetainedRowsReflectsPruning)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const FunctionalAggregate agg = flatAggregate(mp.layers, 1.0, 1.0);
    const WorkloadTrace dense = buildDenseTrace(mp, dp);
    const WorkloadTrace focus =
        buildTrace(mp, dp, MethodConfig::focusSecOnly(), agg);
    EXPECT_EQ(dense.retainedRows(),
              (dp.full_visual_tokens + dp.full_text_tokens) *
                  mp.full_layers);
    EXPECT_LT(focus.retainedRows(), dense.retainedRows());
}

// ---- batched trace fusion ----

TEST(TraceFusion, SingletonIsVerbatim)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const FunctionalAggregate agg = flatAggregate(mp.layers, 1.0, 0.5);
    const WorkloadTrace tr =
        buildTrace(mp, dp, MethodConfig::focusFull(), agg);
    const WorkloadTrace fused = fuseTraces({&tr});
    EXPECT_EQ(fused.batch_size, 1);
    ASSERT_EQ(fused.layers.size(), tr.layers.size());
    EXPECT_EQ(fused.totalMacs(), tr.totalMacs());
    for (size_t l = 0; l < tr.layers.size(); ++l) {
        EXPECT_TRUE(fused.layers[l].queries.empty());
        ASSERT_EQ(fused.layers[l].gemms.size(),
                  tr.layers[l].gemms.size());
        for (size_t g = 0; g < tr.layers[l].gemms.size(); ++g) {
            EXPECT_EQ(fused.layers[l].gemms[g].m,
                      tr.layers[l].gemms[g].m);
            EXPECT_EQ(fused.layers[l].gemms[g].psi_in,
                      tr.layers[l].gemms[g].psi_in);
        }
    }
}

TEST(TraceFusion, PreservesMacsAndRows)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const FunctionalAggregate agg =
        flatAggregate(mp.layers, 1.0, 0.55);
    const WorkloadTrace a =
        buildTrace(mp, dp, MethodConfig::focusFull(), agg);
    const WorkloadTrace b = buildDenseTrace(mp, dp);
    const WorkloadTrace fused = fuseTraces({&a, &b});

    EXPECT_EQ(fused.batch_size, 2);
    const double sum = a.totalMacs() + b.totalMacs();
    EXPECT_NEAR(fused.totalMacs(), sum, 1e-9 * sum);
    EXPECT_EQ(fused.visual0, a.visual0 + b.visual0);
    EXPECT_EQ(fused.text, a.text + b.text);
    EXPECT_EQ(fused.retainedRows(),
              a.retainedRows() + b.retainedRows());

    ASSERT_EQ(fused.layers.size(), a.layers.size());
    for (size_t l = 0; l < fused.layers.size(); ++l) {
        const LayerEvents &fl = fused.layers[l];
        EXPECT_EQ(fl.visual_in,
                  a.layers[l].visual_in + b.layers[l].visual_in);
        // Per-request spans survive fusion.
        ASSERT_EQ(fl.queries.size(), 2u);
        EXPECT_EQ(fl.queries[0].visual_in, a.layers[l].visual_in);
        EXPECT_EQ(fl.queries[1].visual_in, b.layers[l].visual_in);
        EXPECT_EQ(fl.queries[0].sec_topk, a.layers[l].sec_topk);
        // 4 fused shared-weight events + 2 per-request QK + 2 PV.
        ASSERT_EQ(fl.gemms.size(), 8u);
        EXPECT_EQ(fl.gemms[0].site, GemmSite::Qkv);
        EXPECT_EQ(fl.gemms[0].m,
                  a.layers[l].rowsIn() + b.layers[l].rowsIn());
        EXPECT_EQ(fl.gemms[1].site, GemmSite::Qk);
        EXPECT_EQ(fl.gemms[1].m, a.layers[l].rowsIn());
        EXPECT_EQ(fl.gemms[2].site, GemmSite::Qk);
        EXPECT_EQ(fl.gemms[2].m, b.layers[l].rowsIn());
        EXPECT_EQ(fl.gemms[3].site, GemmSite::Pv);
        EXPECT_EQ(fl.gemms[4].site, GemmSite::Pv);
    }
    EXPECT_EQ(fused.method, "Focus+Dense");
}

TEST(TraceFusion, RowWeightedPsiAndGatherUnion)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const FunctionalAggregate agg =
        flatAggregate(mp.layers, 1.0, 0.4);
    const WorkloadTrace sic =
        buildTrace(mp, dp, MethodConfig::focusSicOnly(), agg);
    const WorkloadTrace dense = buildDenseTrace(mp, dp);
    const WorkloadTrace fused = fuseTraces({&sic, &dense});

    const size_t l = 3;
    const GemmEvent &gs = sic.layers[l].gemms[0];   // QKV, psi < 1
    const GemmEvent &gd = dense.layers[l].gemms[0]; // QKV, psi = 1
    ASSERT_LT(gs.psi_in, 1.0);
    const GemmEvent &gf = fused.layers[l].gemms[0];
    const double expect =
        (static_cast<double>(gs.m) * gs.psi_in +
         static_cast<double>(gd.m) * gd.psi_in) /
        static_cast<double>(gs.m + gd.m);
    EXPECT_NEAR(gf.psi_in, expect, 1e-12);
    EXPECT_GT(gf.psi_in, gs.psi_in);
    EXPECT_LT(gf.psi_in, 1.0);

    // A gathered site stays gathered in the union; the dense share
    // weighs in at psi_out = 1 so write traffic is preserved.
    const GemmEvent &os = sic.layers[l].gemms[3];
    ASSERT_TRUE(os.gather_out);
    const GemmEvent &of = fused.layers[l].gemms[5]; // fused O-proj
    ASSERT_EQ(of.site, GemmSite::OProj);
    EXPECT_TRUE(of.gather_out);
    const double expect_out =
        (static_cast<double>(os.m) * os.psi_out +
         static_cast<double>(dense.layers[l].gemms[3].m) * 1.0) /
        static_cast<double>(os.m + dense.layers[l].gemms[3].m);
    EXPECT_NEAR(of.psi_out, expect_out, 1e-12);
}

TEST(TraceFusion, RefusingAFusedTraceFlattens)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const FunctionalAggregate agg =
        flatAggregate(mp.layers, 1.0, 0.55);
    const WorkloadTrace a =
        buildTrace(mp, dp, MethodConfig::focusFull(), agg);
    const WorkloadTrace b = buildDenseTrace(mp, dp);
    const WorkloadTrace c =
        buildTrace(mp, dp, MethodConfig::focusSecOnly(), agg);

    const WorkloadTrace ab = fuseTraces({&a, &b});
    const WorkloadTrace grown = fuseTraces({&ab, &c});
    const WorkloadTrace flat = fuseTraces({&a, &b, &c});

    EXPECT_EQ(grown.batch_size, 3);
    EXPECT_NEAR(grown.totalMacs(), flat.totalMacs(),
                1e-9 * flat.totalMacs());
    ASSERT_EQ(grown.layers.size(), flat.layers.size());
    for (size_t l = 0; l < grown.layers.size(); ++l) {
        const LayerEvents &gl = grown.layers[l];
        const LayerEvents &fl = flat.layers[l];
        // Per-request spans and attention events stay flat: 4 fused
        // shared-weight events + 3 QK + 3 PV.
        ASSERT_EQ(gl.queries.size(), 3u);
        ASSERT_EQ(gl.gemms.size(), 10u);
        EXPECT_EQ(gl.visual_in, fl.visual_in);
        for (size_t q = 0; q < 3; ++q) {
            EXPECT_EQ(gl.queries[q].visual_in,
                      fl.queries[q].visual_in);
            EXPECT_EQ(gl.queries[q].sec_topk,
                      fl.queries[q].sec_topk);
        }
        for (size_t g = 0; g < gl.gemms.size(); ++g) {
            EXPECT_EQ(gl.gemms[g].site, fl.gemms[g].site);
            EXPECT_EQ(gl.gemms[g].m, fl.gemms[g].m);
            EXPECT_NEAR(gl.gemms[g].psi_in, fl.gemms[g].psi_in,
                        1e-12);
        }
    }
}

TEST(TraceFusionDeathTest, GeometryMismatchIsFatal)
{
    const DatasetProfile dp = datasetProfile("VideoMME");
    ModelProfile mp = modelProfile("Llava-Vid");
    const WorkloadTrace a = buildDenseTrace(mp, dp);
    mp.full_hidden = 4096;
    const WorkloadTrace b = buildDenseTrace(mp, dp);
    EXPECT_EXIT(fuseTraces({&a, &b}),
                ::testing::ExitedWithCode(1), "incompatible");
}

// ---- parallel splits (cluster sharding seam) ----

/** Focus trace with SIC psi — the hardest case for conservation. */
WorkloadTrace
focusTrace()
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const FunctionalAggregate agg =
        flatAggregate(mp.layers, 1.0, 0.55);
    return buildTrace(mp, dp, MethodConfig::focusFull(), agg);
}

TEST(TraceSplit, TensorParallelConservesWorkExactly)
{
    const WorkloadTrace tr = focusTrace();
    const TraceWork total = traceWork(tr);

    for (const int tp : {2, 3, 7}) {
        const std::vector<WorkloadTrace> shards =
            splitTensorParallel(tr, tp);
        ASSERT_EQ(shards.size(), static_cast<size_t>(tp));

        int64_t macs = 0, bytes = 0, heads = 0, inner = 0;
        double weighted = 0.0;
        for (int r = 0; r < tp; ++r) {
            const WorkloadTrace &sh = shards[static_cast<size_t>(r)];
            EXPECT_EQ(sh.tp_degree, tp);
            EXPECT_EQ(sh.layers.size(), tr.layers.size());
            const TraceWork w = traceWork(sh);
            // Token rows replicate: every shard streams the full
            // activation set.
            EXPECT_EQ(w.retained_rows, total.retained_rows);
            macs += w.dense_macs;
            bytes += w.weight_bytes;
            weighted += w.weighted_macs;
            heads += sh.heads;
            inner += sh.ffn_inner;
        }
        // Integer quantities partition with no remainder lost.
        EXPECT_EQ(macs, total.dense_macs);
        EXPECT_EQ(bytes, total.weight_bytes);
        EXPECT_EQ(heads, tr.heads);
        EXPECT_EQ(inner, tr.ffn_inner);
        // psi-weighted MACs are floating point: only near-exact.
        EXPECT_NEAR(weighted, total.weighted_macs,
                    1e-9 * total.weighted_macs);
    }
}

TEST(TraceSplit, TensorParallelPartitionsEverySite)
{
    const WorkloadTrace tr = focusTrace();
    const int tp = 4;
    const std::vector<WorkloadTrace> shards =
        splitTensorParallel(tr, tp);
    for (size_t l = 0; l < tr.layers.size(); ++l) {
        const std::vector<GemmEvent> &full = tr.layers[l].gemms;
        for (size_t g = 0; g < full.size(); ++g) {
            int64_t n_sum = 0, k_sum = 0;
            int count_sum = 0;
            for (const WorkloadTrace &sh : shards) {
                const GemmEvent &e = sh.layers[l].gemms[g];
                EXPECT_EQ(e.site, full[g].site);
                EXPECT_EQ(e.m, full[g].m);
                n_sum += e.n;
                k_sum += e.k;
                count_sum += e.count;
            }
            switch (full[g].site) {
              case GemmSite::Qkv:
              case GemmSite::GateUp:
                // Column parallel: n partitions, k/count replicate.
                EXPECT_EQ(n_sum, full[g].n);
                EXPECT_EQ(k_sum, tp * full[g].k);
                EXPECT_EQ(count_sum, tp * full[g].count);
                break;
              case GemmSite::OProj:
              case GemmSite::Down:
                // Row parallel: k partitions, n/count replicate.
                EXPECT_EQ(k_sum, full[g].k);
                EXPECT_EQ(n_sum, tp * full[g].n);
                EXPECT_EQ(count_sum, tp * full[g].count);
                break;
              case GemmSite::Qk:
              case GemmSite::Pv:
                // Head parallel: count partitions, dims replicate.
                EXPECT_EQ(count_sum, full[g].count);
                EXPECT_EQ(n_sum, tp * full[g].n);
                EXPECT_EQ(k_sum, tp * full[g].k);
                break;
            }
        }
    }
}

TEST(TraceSplit, TensorParallelOfOneIsVerbatim)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dp = datasetProfile("VideoMME");
    const WorkloadTrace tr = buildDenseTrace(mp, dp);
    const std::vector<WorkloadTrace> shards =
        splitTensorParallel(tr, 1);
    ASSERT_EQ(shards.size(), 1u);
    EXPECT_EQ(shards[0].tp_degree, 1);
    const TraceWork a = traceWork(tr);
    const TraceWork b = traceWork(shards[0]);
    EXPECT_EQ(a.dense_macs, b.dense_macs);
    EXPECT_EQ(a.weight_bytes, b.weight_bytes);
    EXPECT_EQ(a.retained_rows, b.retained_rows);
    EXPECT_EQ(a.weighted_macs, b.weighted_macs);
}

TEST(TraceSplitDeathTest, InvalidSplitFactorsAreFatal)
{
    const ModelProfile mp = modelProfile("Llava-Vid");
    const DatasetProfile dsp = datasetProfile("VideoMME");
    const WorkloadTrace tr = buildDenseTrace(mp, dsp);

    EXPECT_EXIT(splitTensorParallel(tr, 0),
                ::testing::ExitedWithCode(1), "invalid split factor");
    EXPECT_EXIT(splitTensorParallel(tr, -2),
                ::testing::ExitedWithCode(1), "invalid split factor");
    EXPECT_EXIT(
        splitTensorParallel(tr, static_cast<int>(tr.heads) + 1),
        ::testing::ExitedWithCode(1), "invalid split factor");
}

} // namespace
} // namespace focus
