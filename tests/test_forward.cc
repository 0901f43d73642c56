/**
 * @file
 * Bit-identity of the one functional forward path.
 *
 * VlmModel::forwardBatch is the only forward implementation (forward()
 * is a batch of one), and Evaluator::runFunctional packs samples
 * through it in thread-count-dependent chunks.  These tests pin both
 * against the per-sample reference pass in tests/reference/forward.h
 * with exact (EXPECT_EQ) floating-point comparisons: every batch
 * split, every method family including INT8, every SEC selection rule,
 * and 1 and 4 threads.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "eval/evaluator.h"
#include "reference/forward.h"
#include "runtime/thread_pool.h"
#include "vlm/method.h"
#include "vlm/model.h"
#include "workload/video_gen.h"

namespace focus
{
namespace
{

EvalOptions
quick(int samples = 3)
{
    EvalOptions o;
    o.samples = samples;
    o.seed = 777;
    return o;
}

void
expectVecEq(const std::vector<double> &a, const std::vector<double> &b,
            const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]) << what << "[" << i << "]";
    }
}

/** Exact equality on every MethodEval field. */
void
expectEvalBitEqual(const MethodEval &a, const MethodEval &b)
{
    EXPECT_EQ(a.method, b.method);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.sparsity, b.sparsity);
    EXPECT_EQ(a.agg.reduced_layers, b.agg.reduced_layers);
    EXPECT_EQ(a.agg.samples, b.agg.samples);
    EXPECT_EQ(a.agg.accuracy, b.agg.accuracy);
    EXPECT_EQ(a.agg.sparsity, b.agg.sparsity);
    expectVecEq(a.agg.keep_in, b.agg.keep_in, "keep_in");
    expectVecEq(a.agg.keep_out, b.agg.keep_out, "keep_out");
    expectVecEq(a.agg.psi_qkv, b.agg.psi_qkv, "psi_qkv");
    expectVecEq(a.agg.psi_oproj, b.agg.psi_oproj, "psi_oproj");
    expectVecEq(a.agg.psi_ffn, b.agg.psi_ffn, "psi_ffn");
    expectVecEq(a.agg.psi_down, b.agg.psi_down, "psi_down");
    expectVecEq(a.agg.tile_fracs, b.agg.tile_fracs, "tile_fracs");
}

/** Exact equality on every ForwardResult field. */
void
expectForwardBitEqual(const ForwardResult &a, const ForwardResult &b)
{
    EXPECT_EQ(a.correct, b.correct);
    EXPECT_EQ(a.predicted_color, b.predicted_color);
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.dense_ops, b.dense_ops);
    EXPECT_EQ(a.visual_initial, b.visual_initial);
    EXPECT_EQ(a.visual_original, b.visual_original);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t l = 0; l < a.layers.size(); ++l) {
        const LayerRecord &la = a.layers[l];
        const LayerRecord &lb = b.layers[l];
        EXPECT_EQ(la.visual_in, lb.visual_in) << "layer " << l;
        EXPECT_EQ(la.visual_out, lb.visual_out) << "layer " << l;
        EXPECT_EQ(la.text, lb.text) << "layer " << l;
        EXPECT_EQ(la.psi_qkv, lb.psi_qkv) << "layer " << l;
        EXPECT_EQ(la.psi_oproj, lb.psi_oproj) << "layer " << l;
        EXPECT_EQ(la.psi_ffn, lb.psi_ffn) << "layer " << l;
        EXPECT_EQ(la.psi_down, lb.psi_down) << "layer " << l;
        expectVecEq(la.tile_fracs, lb.tile_fracs, "layer tile_fracs");
    }
    ASSERT_EQ(a.readout_attention.size(), b.readout_attention.size());
    for (std::size_t i = 0; i < a.readout_attention.size(); ++i) {
        EXPECT_EQ(a.readout_attention[i], b.readout_attention[i])
            << "readout_attention[" << i << "]";
    }
    ASSERT_EQ(a.active_original.size(), b.active_original.size());
    for (std::size_t i = 0; i < a.active_original.size(); ++i) {
        EXPECT_EQ(a.active_original[i], b.active_original[i])
            << "active_original[" << i << "]";
    }
}

/**
 * The aggregate runFunctional must produce, computed from reference
 * forward results in sample order.
 */
MethodEval
referenceEval(const Evaluator &ev, const MethodConfig &method)
{
    const int n = ev.options().samples;
    const int L = ev.modelProfile().layers;
    MethodEval e;
    e.method = method.name();
    FunctionalAggregate &agg = e.agg;
    agg.reduced_layers = L;
    for (std::vector<double> *v :
         {&agg.keep_in, &agg.keep_out, &agg.psi_qkv, &agg.psi_oproj,
          &agg.psi_ffn, &agg.psi_down}) {
        v->assign(static_cast<std::size_t>(L), 0.0);
    }
    int correct = 0;
    double sparsity_sum = 0.0;
    for (int s = 0; s < n; ++s) {
        const ForwardResult fr = reference::forward(
            ev.model(), ev.generator().sample(static_cast<uint64_t>(s)),
            method, ev.generator().bank());
        correct += fr.correct ? 1 : 0;
        sparsity_sum += fr.sparsity();
        const double m0 = static_cast<double>(fr.visual_original);
        for (std::size_t l = 0; l < static_cast<std::size_t>(L); ++l) {
            const LayerRecord &rec = fr.layers[l];
            agg.keep_in[l] += static_cast<double>(rec.visual_in) / m0;
            agg.keep_out[l] += static_cast<double>(rec.visual_out) / m0;
            agg.psi_qkv[l] += rec.psi_qkv;
            agg.psi_oproj[l] += rec.psi_oproj;
            agg.psi_ffn[l] += rec.psi_ffn;
            agg.psi_down[l] += rec.psi_down;
            agg.tile_fracs.insert(agg.tile_fracs.end(),
                                  rec.tile_fracs.begin(),
                                  rec.tile_fracs.end());
        }
        agg.samples += 1;
    }
    const double inv = 1.0 / static_cast<double>(n);
    for (std::vector<double> *v :
         {&agg.keep_in, &agg.keep_out, &agg.psi_qkv, &agg.psi_oproj,
          &agg.psi_ffn, &agg.psi_down}) {
        for (double &x : *v) {
            x *= inv;
        }
    }
    e.accuracy = static_cast<double>(correct) / static_cast<double>(n);
    e.sparsity = sparsity_sum * inv;
    agg.accuracy = e.accuracy;
    agg.sparsity = e.sparsity;
    return e;
}

/**
 * forwardBatch against @p ref (the reference pass of each of the three
 * @p samples) at every way of splitting them into consecutive
 * batches.
 */
void
expectBatchMatchesAtEverySplit(const Evaluator &ev, const MethodConfig &m,
                               const std::vector<VideoSample> &samples,
                               const std::vector<ForwardResult> &ref)
{
    const std::vector<std::vector<int>> splits = {
        {3}, {1, 2}, {2, 1}, {1, 1, 1}};
    for (const std::vector<int> &split : splits) {
        std::vector<ForwardResult> got;
        std::size_t off = 0;
        for (int chunk : split) {
            std::vector<const VideoSample *> ptrs;
            for (int i = 0; i < chunk; ++i) {
                ptrs.push_back(&samples[off + i]);
            }
            std::vector<ForwardResult> part = ev.model().forwardBatch(
                ptrs.data(), chunk, m, ev.generator().bank());
            ASSERT_EQ(part.size(), static_cast<std::size_t>(chunk));
            for (ForwardResult &r : part) {
                got.push_back(std::move(r));
            }
            off += chunk;
        }
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            expectForwardBitEqual(ref[i], got[i]);
        }
    }
}

/**
 * One method on one profile's first three samples.  @p name labels
 * the case in the test name, so each case is its own ctest entry.
 */
struct ForwardCase
{
    const char *name;
    bool image;
    MethodConfig method;
    /**
     * Layers at which the reference pass must prune some of the three
     * samples and keep every visual row of the others, each with its
     * pattern: 'p' for a sample that prunes there, 'k' for one that
     * keeps every row.
     */
    std::vector<std::pair<int, std::string>> pruning = {};
};

void
PrintTo(const ForwardCase &c, std::ostream *os)
{
    *os << c.name;
}

/**
 * Each evaluator is built once per process, by the first case that
 * needs it: ctest runs every case in its own process.
 */
const Evaluator &
evaluatorFor(bool image)
{
    if (image) {
        static const Evaluator image_ev("Qwen2.5-VL", "VQAv2", quick(3));
        return image_ev;
    }
    static const Evaluator video_ev("MiniCPM", "MVBench", quick(3));
    return video_ev;
}

std::vector<ForwardCase>
forwardCases()
{
    MethodConfig focus_q = MethodConfig::focusFull();
    focus_q.int8 = true;
    MethodConfig top_p = MethodConfig::focusFull();
    top_p.focus.sec.select = SecSelect::TopP;
    MethodConfig threshold = MethodConfig::focusFull();
    threshold.focus.sec.select = SecSelect::Threshold;
    MethodConfig single_frame = MethodConfig::focusFull();
    single_frame.focus.sic.block_f = 1;
    MethodConfig mixed = top_p;
    mixed.focus.sec.top_p = 0.9999;
    return {
        {"FocusVideo", false, MethodConfig::focusFull()},
        {"FocusInt8Video", false, focus_q},
        {"AdaptivVideo", false, MethodConfig::adaptivBaseline()},
        {"SingleFrameSicImage", true, single_frame},
        {"TopPImage", true, top_p},
        {"ThresholdImage", true, threshold},
        {"SecOnlyImage", true, MethodConfig::focusSecOnly()},
        {"SicOnlyImage", true, MethodConfig::focusSicOnly()},
        {"MixedPruningImage", true, mixed, {{1, "pkp"}, {5, "kpp"}}},
    };
}

class ForwardBatch : public ::testing::TestWithParam<ForwardCase>
{
};

// forwardBatch must match the reference sample by sample, for every
// way of splitting the batch: every SEC selection rule, SEC and SIC on
// their own, the INT8 variant, a token-merging baseline, and a
// single-frame SIC window on an image profile, whose schedule keeps
// more rows, and a top-p cut that prunes some samples of a batch and
// not others at the same layer, so a sample that keeps every row must
// still move down behind one that pruned.  Both pool widths run
// inside the test, so the streamed attention fan-out and the pool
// workers that help it run whatever FOCUS_THREADS says.  forward() is
// the split into batches of one.  The image profile's 206-row samples
// keep the list cheap enough for the sanitizer builds.
TEST_P(ForwardBatch, MatchesReferenceAtEverySplit)
{
    const ForwardCase &c = GetParam();
    const Evaluator &ev = evaluatorFor(c.image);
    const VideoGenerator &gen = ev.generator();
    SCOPED_TRACE(c.method.name() + " on " + ev.modelProfile().name);
    std::vector<VideoSample> samples;
    std::vector<ForwardResult> ref;
    for (uint64_t i = 0; i < 3; ++i) {
        samples.push_back(gen.sample(i));
        ref.push_back(reference::forward(ev.model(), samples.back(),
                                         c.method, gen.bank()));
    }
    for (const auto &[layer, pattern] : c.pruning) {
        std::string got;
        for (const ForwardResult &r : ref) {
            const LayerRecord &rec =
                r.layers[static_cast<std::size_t>(layer)];
            got += rec.visual_out < rec.visual_in ? 'p' : 'k';
        }
        ASSERT_EQ(got, pattern) << "pruning at layer " << layer;
    }
    for (int threads : {1, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        ThreadPool::setGlobalThreads(threads);
        expectBatchMatchesAtEverySplit(ev, c.method, samples, ref);
    }
    ThreadPool::setGlobalThreads(0);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        expectForwardBitEqual(
            ref[i], ev.model().forward(samples[i], c.method, gen.bank()));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, ForwardBatch, ::testing::ValuesIn(forwardCases()),
    [](const ::testing::TestParamInfo<ForwardCase> &param) {
        return std::string(param.param.name);
    });

// runFunctional's chunked, pool-fanned evaluation must equal the
// reference aggregate for every method family at 1 and 4 threads,
// and a repeated call (nothing is memoized) must recompute the same
// doubles.
TEST(Forward, RunFunctionalMatchesReferenceAcrossMethodsAndThreads)
{
    const Evaluator ev("Llava-Vid", "VideoMME", quick());
    const std::vector<MethodConfig> methods = {
        MethodConfig::dense(),
        MethodConfig::focusFull(),
        MethodConfig::cmcBaseline(),
        MethodConfig::frameFusionBaseline(),
    };
    for (const MethodConfig &m : methods) {
        const MethodEval ref = referenceEval(ev, m);
        for (int threads : {1, 4}) {
            ThreadPool pool(threads);
            expectEvalBitEqual(ref, ev.runFunctional(m, &pool));
            expectEvalBitEqual(ref, ev.runFunctional(m, &pool));
        }
    }
}

// The per-Evaluator dense-trace memo must be invisible: repeated
// traceSparsity calls and a fresh Evaluator agree exactly.
TEST(Forward, DenseTraceMemoStable)
{
    const Evaluator ev("Llava-Vid", "VideoMME", quick(2));
    const MethodConfig m = MethodConfig::focusFull();
    const MethodEval e = ev.runFunctional(m);

    const double s1 = ev.traceSparsity(m, e);
    const double s2 = ev.traceSparsity(m, e);
    EXPECT_EQ(s1, s2);
    EXPECT_GT(s1, 0.0);

    const Evaluator fresh("Llava-Vid", "VideoMME", quick(2));
    EXPECT_EQ(s1, fresh.traceSparsity(m, e));
}

} // namespace
} // namespace focus
