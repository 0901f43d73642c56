/**
 * @file
 * Video question answering with prompt-aware concentration — the
 * scenario that motivates SEC (paper Fig. 1(a) / Fig. 2(a)).
 *
 *   video_qa [sample_index]
 *
 * Generates one synthetic video QA sample, renders the cross-modal
 * attention heatmap as ASCII per frame (the prompt asks about one
 * object type; attention should concentrate on it), runs Focus and
 * dense forward passes, and reports which tokens SEC retained, the
 * answer, and the per-layer concentration state.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "common/parse.h"
#include "eval/evaluator.h"

using namespace focus;

namespace
{

/** ASCII intensity ramp for the heatmap. */
char
shade(double v)
{
    static const char ramp[] = " .:-=+*#%@";
    const int idx = static_cast<int>(v * 9.999);
    return ramp[std::clamp(idx, 0, 9)];
}

} // namespace

int
main(int argc, char **argv)
{
    const uint64_t sample_idx =
        argc > 1 ? parseIndex(argv[1], "sample index") : 0;

    EvalOptions opts;
    opts.samples = 1;
    Evaluator ev("Llava-Vid", "VideoMME", opts);
    const VideoSample sample = ev.generator().sample(sample_idx);

    std::printf("Synthetic video QA sample %llu\n",
                static_cast<unsigned long long>(sample_idx));
    std::printf("Question: \"What is the color of object type %d?\"\n",
                sample.target_type);
    std::printf("Ground-truth answer: color %d\n\n",
                sample.answer_color);

    // ---- Fig. 2(a)-style heatmap ----
    const std::vector<float> imp =
        ev.model().attentionHeatmap(sample);
    float mx = 1e-9f;
    for (float v : imp) {
        mx = std::max(mx, v);
    }
    std::printf("Cross-modal attention heatmap (frames 0 and %d):\n",
                sample.frames - 1);
    for (int r = 0; r < sample.grid_h; ++r) {
        std::string line;
        for (int f : {0, sample.frames - 1}) {
            for (int c = 0; c < sample.grid_w; ++c) {
                const float v =
                    imp[static_cast<size_t>(
                        sample.tokenIndex(f, r, c))];
                line += shade(v / mx);
            }
            line += "   ";
        }
        std::printf("  %s\n", line.c_str());
    }
    std::printf("  ('@' = highest prompt relevance)\n\n");

    // ---- dense vs Focus answers ----
    const ForwardResult dense = ev.model().forward(
        sample, MethodConfig::dense(), ev.generator().bank());
    const ForwardResult fo = ev.model().forward(
        sample, MethodConfig::focusFull(), ev.generator().bank());

    std::printf("Dense answer: color %d (%s)\n", dense.predicted_color,
                dense.correct ? "correct" : "wrong");
    std::printf("Focus answer: color %d (%s)\n", fo.predicted_color,
                fo.correct ? "correct" : "wrong");
    std::printf("Focus computation sparsity (reduced scale): %.1f%%\n\n",
                fo.sparsity() * 100.0);

    std::printf("Per-layer concentration (visual tokens, psi per "
                "gather site):\n");
    std::printf("  %-6s %-10s %-8s %-8s %-8s %-8s\n", "layer",
                "tokens", "qkv", "oproj", "ffn", "down");
    for (size_t l = 0; l < fo.layers.size(); ++l) {
        const LayerRecord &rec = fo.layers[l];
        std::printf("  %-6zu %4ld->%-4ld %-8.2f %-8.2f %-8.2f %-8.2f\n",
                    l, static_cast<long>(rec.visual_in),
                    static_cast<long>(rec.visual_out), rec.psi_qkv,
                    rec.psi_oproj, rec.psi_ffn, rec.psi_down);
    }

    // Coverage of the queried object among retained tokens.
    int retained_relevant = 0;
    for (int64_t orig : fo.active_original) {
        if (std::find(sample.relevant_tokens.begin(),
                      sample.relevant_tokens.end(),
                      orig) != sample.relevant_tokens.end()) {
            ++retained_relevant;
        }
    }
    std::printf("\nSEC retained %zu of %" PRId64 " visual tokens; %d "
                "cover the queried object (of %zu relevant).\n",
                fo.active_original.size(), sample.numVisual(),
                retained_relevant, sample.relevant_tokens.size());
    return 0;
}
