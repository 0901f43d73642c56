/**
 * @file
 * Tests for the functional VLM model: determinism, op accounting,
 * SEC grounding (prompt-aware importance), SIC effects, INT8 mode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <thread>

#include "runtime/thread_pool.h"
#include "vlm/model.h"
#include "workload/video_gen.h"

namespace focus
{
namespace
{

struct Fixture
{
    DatasetProfile dp = datasetProfile("VideoMME");
    ModelProfile mp = modelProfile("Llava-Vid");
    VideoGenerator gen{dp, mp, 51};
    VlmModel model{mp, 52};
};

TEST(VlmModel, ForwardIsDeterministic)
{
    Fixture fx;
    const VideoSample s = fx.gen.sample(0);
    const ForwardResult a =
        fx.model.forward(s, MethodConfig::dense(), fx.gen.bank());
    const ForwardResult b =
        fx.model.forward(s, MethodConfig::dense(), fx.gen.bank());
    EXPECT_EQ(a.predicted_color, b.predicted_color);
    EXPECT_DOUBLE_EQ(a.ops, b.ops);
}

TEST(VlmModel, ThreadLocalBuffersKeepBits)
{
    // forwardBatch keeps its working buffers per thread.  An image
    // sample run after a video sample on the same thread finds them
    // sized and filled by the video; it must match the same image
    // sample on a fresh thread, whose buffers start empty.
    ThreadPool::setGlobalThreads(1);
    Fixture fx;
    const ModelProfile mp = modelProfile("Qwen2.5-VL");
    const VideoGenerator gen(datasetProfile("VQAv2"), mp, 61);
    const VlmModel model(mp, 62);
    const VideoSample img = gen.sample(0);
    const MethodConfig focus = MethodConfig::focusFull();

    fx.model.forward(fx.gen.sample(0), focus, fx.gen.bank());
    const ForwardResult reused = model.forward(img, focus, gen.bank());
    ForwardResult fresh;
    std::thread([&] {
        fresh = model.forward(img, focus, gen.bank());
    }).join();
    ThreadPool::setGlobalThreads(0);

    EXPECT_EQ(reused.predicted_color, fresh.predicted_color);
    EXPECT_EQ(reused.ops, fresh.ops);
    EXPECT_EQ(reused.readout_attention, fresh.readout_attention);
    EXPECT_EQ(reused.active_original, fresh.active_original);
    ASSERT_EQ(reused.layers.size(), fresh.layers.size());
    for (size_t l = 0; l < reused.layers.size(); ++l) {
        const LayerRecord &a = reused.layers[l];
        const LayerRecord &b = fresh.layers[l];
        EXPECT_EQ(a.visual_out, b.visual_out) << "layer " << l;
        EXPECT_EQ(a.psi_qkv, b.psi_qkv) << "layer " << l;
        EXPECT_EQ(a.psi_oproj, b.psi_oproj) << "layer " << l;
        EXPECT_EQ(a.psi_ffn, b.psi_ffn) << "layer " << l;
        EXPECT_EQ(a.psi_down, b.psi_down) << "layer " << l;
        EXPECT_EQ(a.tile_fracs, b.tile_fracs) << "layer " << l;
    }
}

TEST(VlmModel, DenseOpsEqualMethodOpsForDense)
{
    Fixture fx;
    const VideoSample s = fx.gen.sample(1);
    const ForwardResult r =
        fx.model.forward(s, MethodConfig::dense(), fx.gen.bank());
    EXPECT_DOUBLE_EQ(r.ops, r.dense_ops);
    EXPECT_DOUBLE_EQ(r.sparsity(), 0.0);
    EXPECT_EQ(r.visual_initial, r.visual_original);
}

TEST(VlmModel, LayerRecordsTrackTokens)
{
    Fixture fx;
    const VideoSample s = fx.gen.sample(2);
    const ForwardResult r =
        fx.model.forward(s, MethodConfig::focusFull(), fx.gen.bank());
    ASSERT_EQ(static_cast<int>(r.layers.size()), fx.mp.layers);
    int64_t prev = r.visual_initial;
    for (const LayerRecord &rec : r.layers) {
        EXPECT_EQ(rec.visual_in, prev);
        EXPECT_LE(rec.visual_out, rec.visual_in);
        prev = rec.visual_out;
    }
    // The schedule ends at 15% retention on the reduced depth.
    const double final_keep = static_cast<double>(prev) /
        static_cast<double>(r.visual_original);
    EXPECT_LT(final_keep, 0.25);
    EXPECT_GT(final_keep, 0.05);
}

TEST(VlmModel, FocusSparsityPositiveAndPsiInRange)
{
    Fixture fx;
    const VideoSample s = fx.gen.sample(3);
    const ForwardResult r =
        fx.model.forward(s, MethodConfig::focusFull(), fx.gen.bank());
    EXPECT_GT(r.sparsity(), 0.4);
    for (const LayerRecord &rec : r.layers) {
        for (double psi : {rec.psi_qkv, rec.psi_oproj, rec.psi_ffn,
                           rec.psi_down}) {
            EXPECT_GT(psi, 0.0);
            EXPECT_LE(psi, 1.0);
        }
    }
    EXPECT_FALSE(r.layers[1].tile_fracs.empty());
}

TEST(VlmModel, SecOnlyHasUnitPsi)
{
    Fixture fx;
    const VideoSample s = fx.gen.sample(3);
    const ForwardResult r = fx.model.forward(
        s, MethodConfig::focusSecOnly(), fx.gen.bank());
    for (const LayerRecord &rec : r.layers) {
        EXPECT_DOUBLE_EQ(rec.psi_qkv, 1.0);
        EXPECT_DOUBLE_EQ(rec.psi_oproj, 1.0);
    }
    EXPECT_GT(r.sparsity(), 0.2);
}

TEST(VlmModel, SicOnlyKeepsAllTokens)
{
    Fixture fx;
    const VideoSample s = fx.gen.sample(4);
    const ForwardResult r = fx.model.forward(
        s, MethodConfig::focusSicOnly(), fx.gen.bank());
    for (const LayerRecord &rec : r.layers) {
        EXPECT_EQ(rec.visual_in, rec.visual_out);
    }
    EXPECT_GT(r.sparsity(), 0.05);
    EXPECT_LT(r.sparsity(), 0.9);
}

TEST(VlmModel, AblationOrdering)
{
    // SEC+SIC >= SEC-only and >= SIC-only in measured sparsity
    // (Fig. 11 structure).
    Fixture fx;
    const VideoSample s = fx.gen.sample(5);
    const double full =
        fx.model.forward(s, MethodConfig::focusFull(), fx.gen.bank())
            .sparsity();
    const double sec_only =
        fx.model
            .forward(s, MethodConfig::focusSecOnly(), fx.gen.bank())
            .sparsity();
    const double sic_only =
        fx.model
            .forward(s, MethodConfig::focusSicOnly(), fx.gen.bank())
            .sparsity();
    EXPECT_GT(full, sec_only);
    EXPECT_GT(full, sic_only);
}

TEST(VlmModel, AttentionHeatmapConcentratesOnTarget)
{
    // The Fig. 2(a) property: importance of tokens covering the
    // queried object type (target, or a same-type distractor when
    // the question is ambiguous) far exceeds the background average.
    Fixture fx;
    int wins = 0;
    const int trials = 6;
    for (int t = 0; t < trials; ++t) {
        const VideoSample s = fx.gen.sample(static_cast<uint64_t>(t));
        const std::vector<float> imp = fx.model.attentionHeatmap(s);
        std::vector<int64_t> grounded = s.relevant_tokens;
        grounded.insert(grounded.end(), s.distractor_tokens.begin(),
                        s.distractor_tokens.end());
        double relevant = 0.0;
        for (int64_t idx : grounded) {
            relevant = std::max(
                relevant,
                static_cast<double>(imp[static_cast<size_t>(idx)]));
        }
        const double overall =
            std::accumulate(imp.begin(), imp.end(), 0.0) /
            static_cast<double>(imp.size());
        wins += relevant > 4.0 * overall ? 1 : 0;
    }
    EXPECT_GE(wins, trials - 1);
}

TEST(VlmModel, SecRetainsRelevantTokens)
{
    // After the full retention schedule, the surviving set should
    // still cover the queried object for most samples.
    Fixture fx;
    int covered = 0;
    const int trials = 6;
    for (int t = 0; t < trials; ++t) {
        const VideoSample s = fx.gen.sample(static_cast<uint64_t>(t));
        const ForwardResult r = fx.model.forward(
            s, MethodConfig::focusFull(), fx.gen.bank());
        int hits = 0;
        for (int64_t orig : r.active_original) {
            if (std::find(s.relevant_tokens.begin(),
                          s.relevant_tokens.end(),
                          orig) != s.relevant_tokens.end()) {
                ++hits;
            }
        }
        covered += hits > 0 ? 1 : 0;
    }
    EXPECT_GE(covered, trials - 1);
}

TEST(VlmModel, Int8PerturbsButPreservesScale)
{
    Fixture fx;
    const VideoSample s = fx.gen.sample(6);
    MethodConfig fp16 = MethodConfig::focusFull();
    MethodConfig int8 = MethodConfig::focusFull();
    int8.int8 = true;
    const ForwardResult a = fx.model.forward(s, fp16, fx.gen.bank());
    const ForwardResult b = fx.model.forward(s, int8, fx.gen.bank());
    // Sparsity shifts only slightly under quantization (Tbl. IV).
    EXPECT_NEAR(a.sparsity(), b.sparsity(), 0.08);
}

TEST(VlmModel, ReadoutAttentionIsDistribution)
{
    Fixture fx;
    const VideoSample s = fx.gen.sample(7);
    const ForwardResult r =
        fx.model.forward(s, MethodConfig::dense(), fx.gen.bank());
    ASSERT_EQ(static_cast<int64_t>(r.readout_attention.size()),
              s.numVisual());
    double sum = 0.0;
    for (float w : r.readout_attention) {
        EXPECT_GE(w, 0.0f);
        sum += static_cast<double>(w);
    }
    EXPECT_NEAR(sum, 1.0, 1e-3);
}

TEST(VlmModel, BaselineMergingReducesTokens)
{
    Fixture fx;
    const VideoSample s = fx.gen.sample(8);
    for (const MethodConfig &m :
         {MethodConfig::adaptivBaseline(), MethodConfig::cmcBaseline(),
          MethodConfig::frameFusionBaseline()}) {
        const ForwardResult r = fx.model.forward(s, m, fx.gen.bank());
        EXPECT_LT(r.visual_initial, r.visual_original)
            << m.name();
        EXPECT_GT(r.sparsity(), 0.05) << m.name();
    }
}

TEST(VlmModel, TokenWiseSicRemovesLessThanVectorWise)
{
    Fixture fx;
    double vec = 0.0, tok = 0.0;
    for (int t = 0; t < 3; ++t) {
        const VideoSample s = fx.gen.sample(static_cast<uint64_t>(t));
        vec += fx.model
                   .forward(s, MethodConfig::focusFull(),
                            fx.gen.bank())
                   .sparsity();
        tok += fx.model
                   .forward(s, MethodConfig::focusTokenWise(),
                            fx.gen.bank())
                   .sparsity();
    }
    EXPECT_GE(vec, tok - 1e-6);
}

} // namespace
} // namespace focus
