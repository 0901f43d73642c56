/**
 * @file
 * Per-sample reference forward pass: the oracle VlmModel::forwardBatch
 * is checked against.
 *
 * One sample at a time, every projection a plain tensor/ops.h gemm()
 * over that sample's rows, attention scores one dotRowsScaled() call
 * per query row, activations rounded to fp16 one `fp16Round` at a
 * time.  forwardBatch packs samples into taller GEMMs, tiles the
 * attention interior and rounds 8 lanes at a time with F16C; all of
 * it must reproduce this function bit for bit (tests/test_forward.cc).
 */

#ifndef FOCUS_TESTS_REFERENCE_FORWARD_H
#define FOCUS_TESTS_REFERENCE_FORWARD_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/half.h"
#include "focus/sec.h"
#include "focus/sic.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "vlm/model.h"

namespace focus
{
namespace reference
{

/**
 * Activation rounding one element at a time through the software
 * converter, so the forward comparison also checks
 * Tensor::roundToFp16's batch (F16C) path end to end.
 */
inline void
roundFp16Scalar(Tensor &t)
{
    for (int64_t i = 0; i < t.numel(); ++i) {
        t.data()[i] = fp16Round(t.data()[i]);
    }
}

/** Multi-head causal attention; fills per-head probabilities. */
inline void
attention(const ModelProfile &prof, const Tensor &xn,
          const VlmModel::LayerWeights &w,
          std::vector<Tensor> &head_probs, Tensor &q, Tensor &k,
          Tensor &v)
{
    const int64_t rows = xn.rows();
    const int64_t hd = prof.headDim();
    gemm(xn, w.wq, q);
    gemm(xn, w.wk, k);
    gemm(xn, w.wv, v);

    head_probs.assign(static_cast<size_t>(prof.heads), Tensor());
    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
    for (int h = 0; h < prof.heads; ++h) {
        Tensor &p = head_probs[static_cast<size_t>(h)];
        p = Tensor(rows, rows);
        const int64_t c0 = static_cast<int64_t>(h) * hd;
        for (int64_t i = 0; i < rows; ++i) {
            float *prow = p.row(i);
            kernels::dotRowsScaled(q.row(i) + c0, k.row(0) + c0,
                                   k.cols(), i + 1, hd, inv_sqrt, prow);
            for (int64_t j = i + 1; j < rows; ++j) {
                prow[j] = -1e30f;
            }
        }
        softmaxRows(p);
    }
}

/**
 * SIC-gather @p x in place; append the site's tile fractions to
 * @p rec and return its unique-vector fraction.
 */
inline double
gatherSite(Tensor &x, const std::vector<TokenCoord> &coords,
           const SicConfig &cfg, LayerRecord &rec)
{
    SicResult g = sicGather(x, coords, cfg);
    rec.tile_fracs.insert(rec.tile_fracs.end(),
                          g.tile_slice_unique_frac.begin(),
                          g.tile_slice_unique_frac.end());
    return g.uniqueFrac();
}

/** Run one sample under a method, one sample's rows per GEMM. */
inline ForwardResult
forward(const VlmModel &model, const VideoSample &sample,
        const MethodConfig &method, const PrototypeBank &bank)
{
    const ModelProfile &prof = model.profile();
    const int64_t d = prof.hidden;
    const int64_t inner = prof.ffnInner();
    const int64_t m_orig = sample.numVisual();
    const int64_t t_count = sample.numText();
    const std::vector<VlmModel::LayerWeights> &weights =
        model.weights(method.int8);
    const VlmModel::LayerWeights &last = model.weights(false).back();

    ForwardResult res;
    res.visual_original = m_orig;

    // Preprocess: token-level reduction for the merging baselines.
    TokenReduction red = identityReduction(m_orig);
    switch (method.kind) {
      case MethodKind::AdapTiV:
        red = adaptivReduce(sample.visual_tokens, sample.coords,
                            sample.frames, sample.grid_h, sample.grid_w,
                            method.adaptiv);
        break;
      case MethodKind::CMC:
        red = cmcReduce(sample.visual_tokens, sample.coords,
                        sample.frames, sample.grid_h, sample.grid_w,
                        method.cmc);
        break;
      case MethodKind::FrameFusion:
        red = frameFusionReduce(sample.visual_tokens, sample.coords,
                                sample.frames, sample.grid_h,
                                sample.grid_w, method.framefusion);
        break;
      default:
        break;
    }

    const int64_t s0 = static_cast<int64_t>(red.kept.size());
    res.visual_initial = s0;

    // Merged-group mean embeddings, coordinates of the surviving
    // representative, original index (for readout).
    Tensor visual(s0, d);
    std::vector<TokenCoord> coords(static_cast<size_t>(s0));
    std::vector<int64_t> active_orig(static_cast<size_t>(s0));
    {
        std::vector<int64_t> kept_pos(static_cast<size_t>(m_orig), -1);
        for (int64_t p = 0; p < s0; ++p) {
            const int64_t orig = red.kept[static_cast<size_t>(p)];
            kept_pos[static_cast<size_t>(orig)] = p;
            coords[static_cast<size_t>(p)] =
                sample.coords[static_cast<size_t>(orig)];
            active_orig[static_cast<size_t>(p)] = orig;
        }
        std::vector<int64_t> counts(static_cast<size_t>(s0), 0);
        for (int64_t i = 0; i < m_orig; ++i) {
            const int64_t rep = red.assign[static_cast<size_t>(i)];
            if (rep < 0) {
                continue;
            }
            const int64_t p = kept_pos[static_cast<size_t>(rep)];
            const float *src = sample.visual_tokens.row(i);
            float *dst = visual.row(p);
            for (int64_t j = 0; j < d; ++j) {
                dst[j] += src[j];
            }
            ++counts[static_cast<size_t>(p)];
        }
        for (int64_t p = 0; p < s0; ++p) {
            const float inv = 1.0f /
                static_cast<float>(std::max<int64_t>(
                    counts[static_cast<size_t>(p)], 1));
            float *dst = visual.row(p);
            for (int64_t j = 0; j < d; ++j) {
                dst[j] *= inv;
            }
        }
    }

    Tensor readout_emb = visual;
    Tensor x(s0 + t_count, d);
    for (int64_t i = 0; i < s0; ++i) {
        std::copy(visual.row(i), visual.row(i) + d, x.row(i));
    }
    for (int64_t i = 0; i < t_count; ++i) {
        std::copy(sample.text_tokens.row(i),
                  sample.text_tokens.row(i) + d, x.row(s0 + i));
    }

    const bool is_focus = method.kind == MethodKind::Focus;
    const bool sec_on = is_focus && method.focus.sec_enable;
    const bool sic_on = is_focus && method.focus.sic_enable;

    // Gather coordinates include text rows as non-spatial sentinels.
    auto gather_coords = [&](int64_t s_cur) {
        std::vector<TokenCoord> gc(coords.begin(),
                                   coords.begin() + s_cur);
        gc.resize(static_cast<size_t>(s_cur + t_count),
                  TokenCoord{-1, 0, 0});
        return gc;
    };

    const double rows0 = static_cast<double>(m_orig + t_count);
    const double dense_layer_ops = 3.0 * rows0 * d * d +
        2.0 * rows0 * rows0 * d + 1.0 * rows0 * d * d +
        2.0 * rows0 * d * inner + 1.0 * rows0 * inner * d;
    res.dense_ops = dense_layer_ops * prof.layers;

    int64_t s_cur = s0;
    std::vector<Tensor> head_probs;
    Tensor q, k, v;

    for (int l = 0; l < prof.layers; ++l) {
        const VlmModel::LayerWeights &w = weights[static_cast<size_t>(l)];
        LayerRecord rec;
        rec.visual_in = s_cur;
        rec.text = t_count;
        const int64_t rows = s_cur + t_count;

        // ---- attention block ----
        Tensor xn = x;
        rmsNormRows(xn, w.n1);
        if (method.int8) {
            xn = int8RoundTrip(xn);
        } else {
            roundFp16Scalar(xn);
        }
        if (sic_on && l > 0) {
            rec.psi_qkv = gatherSite(xn, gather_coords(s_cur),
                                     method.focus.sic, rec);
        }
        attention(prof, xn, w, head_probs, q, k, v);
        res.ops += 3.0 * static_cast<double>(rows) * d * d *
            rec.psi_qkv;
        res.ops += static_cast<double>(rows) * rows * d; // QK^T

        // ---- semantic pruning (SEC) ----
        std::vector<int64_t> retained;
        bool pruned = false;
        if (sec_on && prof.pruneAtLayer(l, prof.layers)) {
            // secImportance reads the text rows of each full map.
            std::vector<Tensor> text_probs;
            for (const Tensor &p : head_probs) {
                text_probs.push_back(p.sliceRows(s_cur, rows));
            }
            const std::vector<float> importance =
                secImportance(text_probs, s_cur, t_count);
            switch (method.focus.sec.select) {
              case SecSelect::TopK: {
                const double ratio =
                    prof.retentionAfterLayer(l, prof.layers);
                const int64_t want = std::max<int64_t>(
                    1, static_cast<int64_t>(std::llround(
                           ratio * static_cast<double>(m_orig))));
                if (want < s_cur) {
                    retained = secTopK(importance, want);
                    pruned = true;
                }
                break;
              }
              case SecSelect::TopP:
                retained = secTopP(importance, method.focus.sec.top_p);
                pruned = static_cast<int64_t>(retained.size()) < s_cur;
                break;
              case SecSelect::Threshold:
                retained = secThreshold(importance,
                                        method.focus.sec.threshold);
                pruned = static_cast<int64_t>(retained.size()) < s_cur;
                break;
            }
        }

        const int64_t s_next = pruned
            ? static_cast<int64_t>(retained.size()) : s_cur;
        const int64_t rows_after = s_next + t_count;
        rec.visual_out = s_next;

        // ---- P x V, computed only for surviving rows ----
        Tensor attn_out(rows_after, d);
        const int64_t hd = prof.headDim();
        // A pruned layer multiplies only the retained visual rows and
        // the text rows of each head's P, copied densely first.
        std::vector<int64_t> pv_rows;
        Tensor p_kept;
        if (pruned) {
            pv_rows.resize(static_cast<size_t>(rows_after));
            for (int64_t r = 0; r < rows_after; ++r) {
                pv_rows[static_cast<size_t>(r)] = r < s_next
                    ? retained[static_cast<size_t>(r)]
                    : s_cur + (r - s_next);
            }
            p_kept = Tensor(rows_after, rows);
        }
        for (int h = 0; h < prof.heads; ++h) {
            const Tensor *p = &head_probs[static_cast<size_t>(h)];
            if (pruned) {
                for (int64_t r = 0; r < rows_after; ++r) {
                    std::copy_n(p->row(pv_rows[static_cast<size_t>(r)]),
                                rows, p_kept.row(r));
                }
                p = &p_kept;
            }
            const int64_t c0 = static_cast<int64_t>(h) * hd;
            kernels::gemmF32(rows_after, hd, rows, p->data(), p->cols(),
                             v.data() + c0, v.cols(),
                             attn_out.data() + c0, attn_out.cols());
        }
        res.ops += static_cast<double>(rows_after) * rows * d; // PV

        // ---- shrink the active state if pruned ----
        if (pruned) {
            Tensor x2(rows_after, d);
            Tensor ro2(s_next, d);
            std::vector<TokenCoord> c2(static_cast<size_t>(s_next));
            std::vector<int64_t> ao2(static_cast<size_t>(s_next));
            for (int64_t r = 0; r < s_next; ++r) {
                const int64_t srcv = retained[static_cast<size_t>(r)];
                std::copy(x.row(srcv), x.row(srcv) + d, x2.row(r));
                std::copy(readout_emb.row(srcv),
                          readout_emb.row(srcv) + d, ro2.row(r));
                c2[static_cast<size_t>(r)] =
                    coords[static_cast<size_t>(srcv)];
                ao2[static_cast<size_t>(r)] =
                    active_orig[static_cast<size_t>(srcv)];
            }
            for (int64_t r = 0; r < t_count; ++r) {
                std::copy(x.row(s_cur + r), x.row(s_cur + r) + d,
                          x2.row(s_next + r));
            }
            x = std::move(x2);
            readout_emb = std::move(ro2);
            coords = std::move(c2);
            active_orig = std::move(ao2);
            s_cur = s_next;
        }

        // ---- O projection ----
        if (sic_on) {
            rec.psi_oproj = gatherSite(attn_out, gather_coords(s_cur),
                                       method.focus.sic, rec);
        }
        Tensor o;
        gemm(attn_out, w.wo, o);
        res.ops += static_cast<double>(rows_after) * d * d *
            rec.psi_oproj;
        for (int64_t r = 0; r < rows_after; ++r) {
            float *xr = x.row(r);
            const float *orow = o.row(r);
            for (int64_t j = 0; j < d; ++j) {
                xr[j] += orow[j];
            }
        }

        // ---- FFN block ----
        Tensor xn2 = x;
        rmsNormRows(xn2, w.n2);
        if (method.int8) {
            xn2 = int8RoundTrip(xn2);
        } else {
            roundFp16Scalar(xn2);
        }
        if (sic_on) {
            rec.psi_ffn = gatherSite(xn2, gather_coords(s_cur),
                                     method.focus.sic, rec);
        }
        Tensor gate, up;
        gemm(xn2, w.wg, gate);
        gemm(xn2, w.wu, up);
        res.ops += 2.0 * static_cast<double>(rows_after) * d * inner *
            rec.psi_ffn;
        siluInPlace(gate);
        for (int64_t i = 0; i < gate.numel(); ++i) {
            gate.data()[i] *= up.data()[i];
        }
        if (sic_on) {
            rec.psi_down = gatherSite(gate, gather_coords(s_cur),
                                      method.focus.sic, rec);
        }
        Tensor down;
        gemm(gate, w.wd, down);
        res.ops += static_cast<double>(rows_after) * inner * d *
            rec.psi_down;
        for (int64_t r = 0; r < rows_after; ++r) {
            float *xr = x.row(r);
            const float *dr = down.row(r);
            for (int64_t j = 0; j < d; ++j) {
                xr[j] += dr[j];
            }
        }

        res.layers.push_back(std::move(rec));
    }

    // Readout: final-layer cross-modal attention from the query token
    // over visual tokens, then nearest-prototype color.
    Tensor xn = x;
    rmsNormRows(xn, last.n1);
    const int64_t qrow_idx = s_cur + sample.query_token;
    const int64_t hd = prof.headDim();
    Tensor qv(1, d), kv;
    gemm(xn.sliceRows(qrow_idx, qrow_idx + 1), last.wq, qv);
    gemm(xn.sliceRows(0, s_cur), last.wk, kv);
    std::vector<float> weights_sum(static_cast<size_t>(s_cur), 0.0f);
    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
    std::vector<float> logits(static_cast<size_t>(s_cur));
    for (int h = 0; h < prof.heads; ++h) {
        const int64_t c0 = static_cast<int64_t>(h) * hd;
        kernels::dotRowsScaled(qv.row(0) + c0, kv.row(0) + c0, kv.cols(),
                               s_cur, hd, inv_sqrt, logits.data());
        float mx = -1e30f;
        for (int64_t j = 0; j < s_cur; ++j) {
            mx = std::max(mx, logits[static_cast<size_t>(j)]);
        }
        const float sum =
            kernels::expBiasedSumF32(logits.data(), s_cur, mx);
        for (int64_t j = 0; j < s_cur; ++j) {
            weights_sum[static_cast<size_t>(j)] +=
                logits[static_cast<size_t>(j)] / sum /
                static_cast<float>(prof.heads);
        }
    }

    std::vector<float> readout(static_cast<size_t>(kGroupDim), 0.0f);
    for (int64_t j = 0; j < s_cur; ++j) {
        const float wgt = weights_sum[static_cast<size_t>(j)];
        if (wgt <= 0.0f) {
            continue;
        }
        const float *emb = readout_emb.row(j);
        for (int g = 0; g < kNumGroups; ++g) {
            for (int e = 0; e < kGroupDim; ++e) {
                readout[static_cast<size_t>(e)] +=
                    wgt * emb[g * kGroupDim + e] /
                    static_cast<float>(kNumGroups);
            }
        }
    }
    res.predicted_color = bank.classifyColor(readout.data());
    res.correct = res.predicted_color == sample.answer_color;
    res.readout_attention = std::move(weights_sum);
    res.active_original = active_orig;
    return res;
}

} // namespace reference
} // namespace focus

#endif // FOCUS_TESTS_REFERENCE_FORWARD_H
