#include "vlm/model.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "focus/sec.h"
#include "focus/sic.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

namespace focus
{

namespace
{

/** Random matrix with optional identity component. */
Tensor
initWeight(Rng &rng, int64_t rows, int64_t cols, double ident,
           double noise)
{
    Tensor w(rows, cols);
    const double scale = noise / std::sqrt(static_cast<double>(rows));
    for (int64_t i = 0; i < rows; ++i) {
        float *row = w.row(i);
        for (int64_t j = 0; j < cols; ++j) {
            row[j] = static_cast<float>(rng.gaussian(0.0, scale));
        }
        if (i < cols) {
            row[i] += static_cast<float>(ident);
        }
    }
    return w;
}

/**
 * Random matrix with band-local structure: input group g mixes mostly
 * into output band g, with weaker cross-band coupling.
 *
 * Trained transformers show strong channel locality in their
 * activations (outlier channels, per-channel scales); band-local
 * mixing reproduces the consequence that matters here — sub-token
 * (vector-level) similarity survives the FC layers, which is the
 * property SIC's vector granularity exploits over token granularity
 * (Fig. 1(c), Fig. 2(b)).
 */
Tensor
initBlockLocalWeight(Rng &rng, int64_t rows, int64_t cols, double ident,
                     double local_noise, double global_noise,
                     int groups)
{
    Tensor w(rows, cols);
    const int64_t row_band = rows / groups;
    const int64_t col_band = cols / groups;
    const double local_scale =
        local_noise / std::sqrt(static_cast<double>(row_band));
    const double global_scale =
        global_noise / std::sqrt(static_cast<double>(rows));
    for (int64_t i = 0; i < rows; ++i) {
        float *row = w.row(i);
        const int64_t gi = i / row_band;
        for (int64_t j = 0; j < cols; ++j) {
            const bool local = gi == j / col_band;
            row[j] = static_cast<float>(
                rng.gaussian(0.0, local ? local_scale : global_scale));
        }
        if (i < cols) {
            row[i] += static_cast<float>(ident);
        }
    }
    return w;
}

/** Round-trip all weights through int8 (per-row symmetric). */
Tensor
weightInt8(const Tensor &w)
{
    return int8RoundTrip(w);
}

} // namespace

VlmModel::VlmModel(const ModelProfile &profile, uint64_t seed)
    : prof_(profile)
{
    const int64_t d = prof_.hidden;
    const int64_t inner = prof_.ffnInner();
    Rng rng(seed ^ 0xfeedc0dedeadbeefull);

    layers_.reserve(static_cast<size_t>(prof_.layers));
    for (int l = 0; l < prof_.layers; ++l) {
        LayerWeights w;
        // Identity-heavy Q/K keep cross-modal attention grounded in
        // the input semantics (prompt prototype vs. scene content).
        w.wq = initWeight(rng, d, d, 1.6, 0.5);
        w.wk = initWeight(rng, d, d, 1.6, 0.5);
        w.wv = initWeight(rng, d, d, 0.7, 0.3);
        w.wo = initBlockLocalWeight(rng, d, d, 0.25, 0.35, 0.12,
                                    kNumGroups);
        w.wg = initBlockLocalWeight(rng, d, inner, 0.0, 1.0, 0.30,
                                    kNumGroups);
        w.wu = initBlockLocalWeight(rng, d, inner, 0.0, 1.0, 0.30,
                                    kNumGroups);
        w.wd = initBlockLocalWeight(rng, inner, d, 0.0, 0.45, 0.15,
                                    kNumGroups);
        w.n1 = Tensor(d);
        w.n2 = Tensor(d);
        w.n1.fill(1.0f);
        w.n2.fill(1.0f);
        layers_.push_back(std::move(w));
    }

    layers_int8_.reserve(layers_.size());
    for (const LayerWeights &w : layers_) {
        LayerWeights q;
        q.wq = weightInt8(w.wq);
        q.wk = weightInt8(w.wk);
        q.wv = weightInt8(w.wv);
        q.wo = weightInt8(w.wo);
        q.wg = weightInt8(w.wg);
        q.wu = weightInt8(w.wu);
        q.wd = weightInt8(w.wd);
        q.n1 = w.n1;
        q.n2 = w.n2;
        layers_int8_.push_back(std::move(q));
    }
}

ForwardResult
VlmModel::forward(const VideoSample &sample, const MethodConfig &method,
                  const PrototypeBank &bank) const
{
    const VideoSample *one = &sample;
    return std::move(forwardBatch(&one, 1, method, bank).front());
}

namespace
{

/** Per-sample working state for VlmModel::forwardBatch. */
struct BatchState
{
    const VideoSample *sample = nullptr;
    ForwardResult res;
    Tensor x;           ///< working hidden state [visual ; text]
    Tensor readout_emb; ///< input-space content of active tokens
    std::vector<TokenCoord> coords;
    std::vector<int64_t> active_orig;
    int64_t s_cur = 0;
    int64_t t_count = 0;
    int64_t m_orig = 0;

    Tensor xn; ///< per-phase normed/rounded activations
    std::vector<Tensor> head_probs;
    Tensor attn_out;
    std::vector<int64_t> retained;
    std::vector<int64_t> pv_rows;
    bool pruned = false;
    int64_t s_next = 0;
    int64_t rows_after = 0;
    LayerRecord rec; ///< record of the layer in flight
};

/**
 * One head's causal attention probabilities into @p p (rows x rows):
 * scaled Q.K^T over the causal range, then a causal row softmax that
 * leaves +0 above the diagonal (bit-identical to masking with -1e30
 * and a full-row softmax, the tests/reference/forward.h oracle).
 * Stream order is [visual ; text], so text queries see every visual
 * key.
 */
void
causalHeadProbs(const float *q, int64_t ldq, const float *k, int64_t ldk,
                int64_t rows, int64_t hd, float scale, Tensor &p)
{
    if (p.rank() != 2 || p.rows() != rows || p.cols() != rows) {
        p = Tensor(rows, rows);
    }
    kernels::qkScoresCausalF32(q, ldq, k, ldk, rows, hd, scale, p.data(),
                               p.cols());
    kernels::softmaxCausalF32(rows, p.data(), p.cols());
}

} // namespace

std::vector<ForwardResult>
VlmModel::forwardBatch(const VideoSample *const *samples, int64_t count,
                       const MethodConfig &method,
                       const PrototypeBank &bank) const
{
    // Everything whose value could depend on evaluation order
    // (softmax, SEC, SIC, readout sums) stays per-sample on per-sample
    // buffers, and only the row-independent GEMMs see the packed
    // batch, so no batch split changes a result.
    std::vector<ForwardResult> out;
    if (count <= 0) {
        return out;
    }
    const int64_t d = prof_.hidden;
    const int64_t inner = prof_.ffnInner();
    const int64_t hd = prof_.headDim();
    const std::vector<LayerWeights> &layer_weights = weights(method.int8);
    const bool is_focus = method.kind == MethodKind::Focus;
    const bool sec_on = is_focus && method.focus.sec_enable;
    const bool sic_on = is_focus && method.focus.sic_enable;

    std::vector<BatchState> states(static_cast<size_t>(count));

    auto gather_coords = [&](const BatchState &st) {
        std::vector<TokenCoord> gc(st.coords.begin(),
                                   st.coords.begin() + st.s_cur);
        gc.resize(static_cast<size_t>(st.s_cur + st.t_count),
                  TokenCoord{-1, 0, 0});
        return gc;
    };

    // ------------------------------------------------------------
    // Preprocess every sample: token-level reduction for the merging
    // baselines, merged-group mean embeddings.
    // ------------------------------------------------------------
    for (int64_t bi = 0; bi < count; ++bi) {
        BatchState &st = states[static_cast<size_t>(bi)];
        const VideoSample &sample = *samples[bi];
        st.sample = &sample;
        st.m_orig = sample.numVisual();
        st.t_count = sample.numText();
        st.res.visual_original = st.m_orig;

        TokenReduction red = identityReduction(st.m_orig);
        switch (method.kind) {
          case MethodKind::AdapTiV:
            red = adaptivReduce(sample.visual_tokens, sample.coords,
                                sample.frames, sample.grid_h,
                                sample.grid_w, method.adaptiv);
            break;
          case MethodKind::CMC:
            red = cmcReduce(sample.visual_tokens, sample.coords,
                            sample.frames, sample.grid_h,
                            sample.grid_w, method.cmc);
            break;
          case MethodKind::FrameFusion:
            red = frameFusionReduce(sample.visual_tokens,
                                    sample.coords, sample.frames,
                                    sample.grid_h, sample.grid_w,
                                    method.framefusion);
            break;
          default:
            break;
        }

        const int64_t s0 = static_cast<int64_t>(red.kept.size());
        st.res.visual_initial = s0;

        Tensor visual(s0, d);
        st.coords.assign(static_cast<size_t>(s0), TokenCoord{});
        st.active_orig.assign(static_cast<size_t>(s0), 0);
        {
            std::vector<int64_t> kept_pos(
                static_cast<size_t>(st.m_orig), -1);
            for (int64_t p = 0; p < s0; ++p) {
                const int64_t orig = red.kept[static_cast<size_t>(p)];
                kept_pos[static_cast<size_t>(orig)] = p;
                st.coords[static_cast<size_t>(p)] =
                    sample.coords[static_cast<size_t>(orig)];
                st.active_orig[static_cast<size_t>(p)] = orig;
            }
            std::vector<int64_t> counts(static_cast<size_t>(s0), 0);
            for (int64_t i = 0; i < st.m_orig; ++i) {
                const int64_t rep = red.assign[static_cast<size_t>(i)];
                if (rep < 0) {
                    continue;
                }
                const int64_t p = kept_pos[static_cast<size_t>(rep)];
                if (p < 0) {
                    panic("forwardBatch: token %" PRId64 " assigned to "
                          "non-kept representative %" PRId64, i, rep);
                }
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

        st.readout_emb = visual;
        st.x = Tensor(s0 + st.t_count, d);
        for (int64_t i = 0; i < s0; ++i) {
            std::copy(visual.row(i), visual.row(i) + d, st.x.row(i));
        }
        for (int64_t i = 0; i < st.t_count; ++i) {
            std::copy(sample.text_tokens.row(i),
                      sample.text_tokens.row(i) + d,
                      st.x.row(s0 + i));
        }
        st.s_cur = s0;

        const double rows0 =
            static_cast<double>(st.m_orig + st.t_count);
        const double dense_layer_ops = 3.0 * rows0 * d * d +
            2.0 * rows0 * rows0 * d + 1.0 * rows0 * d * d +
            2.0 * rows0 * d * inner + 1.0 * rows0 * inner * d;
        st.res.dense_ops = dense_layer_ops * prof_.layers;
        st.head_probs.assign(static_cast<size_t>(prof_.heads),
                             Tensor());
    }

    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
    // Packed buffers, reused across layers (gemm() reallocates its
    // output only on shape change).
    Tensor xp, qp, kp, vp, aop, op, gatep, upp, downp;
    std::vector<int64_t> off(static_cast<size_t>(count));
    std::vector<int64_t> offa(static_cast<size_t>(count));

    for (int l = 0; l < prof_.layers; ++l) {
        const LayerWeights &w = layer_weights[static_cast<size_t>(l)];

        // ---- attention block: per-sample norm/round/SIC gather ----
        int64_t total = 0;
        for (int64_t bi = 0; bi < count; ++bi) {
            BatchState &st = states[static_cast<size_t>(bi)];
            st.rec = LayerRecord();
            st.rec.visual_in = st.s_cur;
            st.rec.text = st.t_count;
            st.xn = st.x;
            rmsNormRows(st.xn, w.n1);
            if (method.int8) {
                st.xn = int8RoundTrip(st.xn);
            } else {
                st.xn.roundToFp16();
            }
            if (sic_on && l > 0) {
                SicResult g = sicGather(st.xn, gather_coords(st),
                                        method.focus.sic);
                st.rec.psi_qkv = g.uniqueFrac();
                st.rec.tile_fracs.insert(
                    st.rec.tile_fracs.end(),
                    g.tile_slice_unique_frac.begin(),
                    g.tile_slice_unique_frac.end());
            }
            off[static_cast<size_t>(bi)] = total;
            total += st.s_cur + st.t_count;
        }

        // ---- QKV projections, all samples packed as rows ----
        if (xp.rank() != 2 || xp.rows() != total || xp.cols() != d) {
            xp = Tensor(total, d);
        }
        for (int64_t bi = 0; bi < count; ++bi) {
            const BatchState &st = states[static_cast<size_t>(bi)];
            const int64_t rows = st.s_cur + st.t_count;
            std::copy(st.xn.data(), st.xn.data() + rows * d,
                      xp.row(off[static_cast<size_t>(bi)]));
        }
        gemm(xp, w.wq, qp);
        gemm(xp, w.wk, kp);
        gemm(xp, w.wv, vp);

        // ---- per-sample attention interior ----
        // Scores, softmax, SEC and PV run in one pass per sample so
        // the probability matrices stay cache-hot from the softmax
        // into secImportance and pvCausalF32 (splitting these into
        // separate batch sweeps round-trips every sample's (rows x
        // rows) P through memory and erases the kernel wins).
        for (int64_t bi = 0; bi < count; ++bi) {
            BatchState &st = states[static_cast<size_t>(bi)];
            const int64_t rows = st.s_cur + st.t_count;
            const int64_t o = off[static_cast<size_t>(bi)];
            st.res.ops += 3.0 * static_cast<double>(rows) * d * d *
                st.rec.psi_qkv;
            st.res.ops += static_cast<double>(rows) * rows * d;
            for (int h = 0; h < prof_.heads; ++h) {
                const int64_t c0 = static_cast<int64_t>(h) * hd;
                causalHeadProbs(qp.row(o) + c0, qp.cols(), kp.row(o) + c0,
                                kp.cols(), rows, hd, inv_sqrt,
                                st.head_probs[static_cast<size_t>(h)]);
            }

            st.retained.clear();
            st.pruned = false;
            if (sec_on && prof_.pruneAtLayer(l, prof_.layers)) {
                const std::vector<float> importance = secImportance(
                    st.head_probs, st.s_cur, st.t_count);
                switch (method.focus.sec.select) {
                  case SecSelect::TopK: {
                    const double ratio = prof_.retentionAfterLayer(
                        l, prof_.layers);
                    const int64_t want = std::max<int64_t>(
                        1, static_cast<int64_t>(std::llround(
                               ratio *
                               static_cast<double>(st.m_orig))));
                    if (want < st.s_cur) {
                        st.retained = secTopK(importance, want);
                        st.pruned = true;
                    }
                    break;
                  }
                  case SecSelect::TopP:
                    st.retained =
                        secTopP(importance, method.focus.sec.top_p);
                    st.pruned = static_cast<int64_t>(
                                    st.retained.size()) < st.s_cur;
                    break;
                  case SecSelect::Threshold:
                    st.retained = secThreshold(
                        importance, method.focus.sec.threshold);
                    st.pruned = static_cast<int64_t>(
                                    st.retained.size()) < st.s_cur;
                    break;
                }
            }
            st.s_next = st.pruned
                ? static_cast<int64_t>(st.retained.size()) : st.s_cur;
            st.rows_after = st.s_next + st.t_count;
            st.rec.visual_out = st.s_next;

            const int64_t *pv_map = nullptr;
            if (st.pruned) {
                st.pv_rows.resize(static_cast<size_t>(st.rows_after));
                for (int64_t r = 0; r < st.rows_after; ++r) {
                    st.pv_rows[static_cast<size_t>(r)] = r < st.s_next
                        ? st.retained[static_cast<size_t>(r)]
                        : st.s_cur + (r - st.s_next);
                }
                pv_map = st.pv_rows.data();
            }
            if (st.attn_out.rank() != 2 ||
                st.attn_out.rows() != st.rows_after ||
                st.attn_out.cols() != d) {
                st.attn_out = Tensor(st.rows_after, d);
            }
            for (int h = 0; h < prof_.heads; ++h) {
                const Tensor &p = st.head_probs[static_cast<size_t>(h)];
                const int64_t c0 = static_cast<int64_t>(h) * hd;
                kernels::pvCausalF32(
                    st.rows_after, hd, p.data(), p.cols(), pv_map,
                    vp.row(off[static_cast<size_t>(bi)]) + c0,
                    vp.cols(), st.attn_out.data() + c0,
                    st.attn_out.cols());
            }
            st.res.ops +=
                static_cast<double>(st.rows_after) * rows * d;

            // ---- shrink the active state if pruned ----
            if (st.pruned) {
                Tensor x2(st.rows_after, d);
                Tensor ro2(st.s_next, d);
                std::vector<TokenCoord> c2(
                    static_cast<size_t>(st.s_next));
                std::vector<int64_t> ao2(
                    static_cast<size_t>(st.s_next));
                for (int64_t r = 0; r < st.s_next; ++r) {
                    const int64_t srcv =
                        st.retained[static_cast<size_t>(r)];
                    std::copy(st.x.row(srcv), st.x.row(srcv) + d,
                              x2.row(r));
                    std::copy(st.readout_emb.row(srcv),
                              st.readout_emb.row(srcv) + d,
                              ro2.row(r));
                    c2[static_cast<size_t>(r)] =
                        st.coords[static_cast<size_t>(srcv)];
                    ao2[static_cast<size_t>(r)] =
                        st.active_orig[static_cast<size_t>(srcv)];
                }
                for (int64_t r = 0; r < st.t_count; ++r) {
                    std::copy(st.x.row(st.s_cur + r),
                              st.x.row(st.s_cur + r) + d,
                              x2.row(st.s_next + r));
                }
                st.x = std::move(x2);
                st.readout_emb = std::move(ro2);
                st.coords = std::move(c2);
                st.active_orig = std::move(ao2);
                st.s_cur = st.s_next;
            }

            if (sic_on) {
                SicResult g = sicGather(st.attn_out,
                                        gather_coords(st),
                                        method.focus.sic);
                st.rec.psi_oproj = g.uniqueFrac();
                st.rec.tile_fracs.insert(
                    st.rec.tile_fracs.end(),
                    g.tile_slice_unique_frac.begin(),
                    g.tile_slice_unique_frac.end());
            }
        }

        // ---- O projection, packed ----
        int64_t total_after = 0;
        for (int64_t bi = 0; bi < count; ++bi) {
            offa[static_cast<size_t>(bi)] = total_after;
            total_after += states[static_cast<size_t>(bi)].rows_after;
        }
        if (aop.rank() != 2 || aop.rows() != total_after ||
            aop.cols() != d) {
            aop = Tensor(total_after, d);
        }
        for (int64_t bi = 0; bi < count; ++bi) {
            const BatchState &st = states[static_cast<size_t>(bi)];
            std::copy(st.attn_out.data(),
                      st.attn_out.data() + st.rows_after * d,
                      aop.row(offa[static_cast<size_t>(bi)]));
        }
        gemm(aop, w.wo, op);
        for (int64_t bi = 0; bi < count; ++bi) {
            BatchState &st = states[static_cast<size_t>(bi)];
            st.res.ops += static_cast<double>(st.rows_after) * d * d *
                st.rec.psi_oproj;
            const int64_t o = offa[static_cast<size_t>(bi)];
            for (int64_t r = 0; r < st.rows_after; ++r) {
                float *xr = st.x.row(r);
                const float *orow = op.row(o + r);
                for (int64_t j = 0; j < d; ++j) {
                    xr[j] += orow[j];
                }
            }
        }

        // ---- FFN block ----
        for (int64_t bi = 0; bi < count; ++bi) {
            BatchState &st = states[static_cast<size_t>(bi)];
            st.xn = st.x;
            rmsNormRows(st.xn, w.n2);
            if (method.int8) {
                st.xn = int8RoundTrip(st.xn);
            } else {
                st.xn.roundToFp16();
            }
            if (sic_on) {
                SicResult g = sicGather(st.xn, gather_coords(st),
                                        method.focus.sic);
                st.rec.psi_ffn = g.uniqueFrac();
                st.rec.tile_fracs.insert(
                    st.rec.tile_fracs.end(),
                    g.tile_slice_unique_frac.begin(),
                    g.tile_slice_unique_frac.end());
            }
        }
        if (xp.rank() != 2 || xp.rows() != total_after ||
            xp.cols() != d) {
            xp = Tensor(total_after, d);
        }
        for (int64_t bi = 0; bi < count; ++bi) {
            const BatchState &st = states[static_cast<size_t>(bi)];
            std::copy(st.xn.data(),
                      st.xn.data() + st.rows_after * d,
                      xp.row(offa[static_cast<size_t>(bi)]));
        }
        gemm(xp, w.wg, gatep);
        gemm(xp, w.wu, upp);
        for (int64_t bi = 0; bi < count; ++bi) {
            BatchState &st = states[static_cast<size_t>(bi)];
            st.res.ops += 2.0 * static_cast<double>(st.rows_after) *
                d * inner * st.rec.psi_ffn;
        }
        siluInPlace(gatep);
        for (int64_t i = 0; i < gatep.numel(); ++i) {
            gatep.data()[i] *= upp.data()[i];
        }
        if (sic_on) {
            for (int64_t bi = 0; bi < count; ++bi) {
                BatchState &st = states[static_cast<size_t>(bi)];
                const int64_t o = offa[static_cast<size_t>(bi)];
                Tensor gs = gatep.sliceRows(o, o + st.rows_after);
                SicResult g = sicGather(gs, gather_coords(st),
                                        method.focus.sic);
                st.rec.psi_down = g.uniqueFrac();
                st.rec.tile_fracs.insert(
                    st.rec.tile_fracs.end(),
                    g.tile_slice_unique_frac.begin(),
                    g.tile_slice_unique_frac.end());
                std::copy(gs.data(),
                          gs.data() + st.rows_after * inner,
                          gatep.row(o));
            }
        }
        gemm(gatep, w.wd, downp);
        for (int64_t bi = 0; bi < count; ++bi) {
            BatchState &st = states[static_cast<size_t>(bi)];
            st.res.ops += static_cast<double>(st.rows_after) * inner *
                d * st.rec.psi_down;
            const int64_t o = offa[static_cast<size_t>(bi)];
            for (int64_t r = 0; r < st.rows_after; ++r) {
                float *xr = st.x.row(r);
                const float *dr = downp.row(o + r);
                for (int64_t j = 0; j < d; ++j) {
                    xr[j] += dr[j];
                }
            }
            st.res.layers.push_back(std::move(st.rec));
        }
    }

    // ------------------------------------------------------------
    // Readout: packed query/key projections, per-sample logits.
    // ------------------------------------------------------------
    int64_t total_vis = 0;
    std::vector<int64_t> offv(static_cast<size_t>(count));
    for (int64_t bi = 0; bi < count; ++bi) {
        BatchState &st = states[static_cast<size_t>(bi)];
        st.xn = st.x;
        rmsNormRows(st.xn, layers_.back().n1);
        offv[static_cast<size_t>(bi)] = total_vis;
        total_vis += st.s_cur;
    }
    Tensor qinp(count, d);
    Tensor visp(total_vis, d);
    for (int64_t bi = 0; bi < count; ++bi) {
        const BatchState &st = states[static_cast<size_t>(bi)];
        const int64_t qrow_idx = st.s_cur + st.sample->query_token;
        std::copy(st.xn.row(qrow_idx), st.xn.row(qrow_idx) + d,
                  qinp.row(bi));
        std::copy(st.xn.data(), st.xn.data() + st.s_cur * d,
                  visp.row(offv[static_cast<size_t>(bi)]));
    }
    Tensor qvp, kvp;
    gemm(qinp, layers_.back().wq, qvp);
    gemm(visp, layers_.back().wk, kvp);

    out.reserve(static_cast<size_t>(count));
    for (int64_t bi = 0; bi < count; ++bi) {
        BatchState &st = states[static_cast<size_t>(bi)];
        std::vector<float> weights_sum(static_cast<size_t>(st.s_cur),
                                       0.0f);
        std::vector<float> logits(static_cast<size_t>(st.s_cur));
        for (int h = 0; h < prof_.heads; ++h) {
            const int64_t c0 = static_cast<int64_t>(h) * hd;
            kernels::dotRowsScaled(
                qvp.row(bi) + c0,
                kvp.row(offv[static_cast<size_t>(bi)]) + c0,
                kvp.cols(), st.s_cur, hd, inv_sqrt, logits.data());
            float mx = -1e30f;
            for (int64_t j = 0; j < st.s_cur; ++j) {
                mx = std::max(mx, logits[static_cast<size_t>(j)]);
            }
            const float sum = kernels::expBiasedSumF32(
                logits.data(), st.s_cur, mx);
            for (int64_t j = 0; j < st.s_cur; ++j) {
                weights_sum[static_cast<size_t>(j)] +=
                    logits[static_cast<size_t>(j)] / sum /
                    static_cast<float>(prof_.heads);
            }
        }

        std::vector<float> readout(static_cast<size_t>(kGroupDim),
                                   0.0f);
        for (int64_t j = 0; j < st.s_cur; ++j) {
            const float wgt = weights_sum[static_cast<size_t>(j)];
            if (wgt <= 0.0f) {
                continue;
            }
            const float *emb = st.readout_emb.row(j);
            for (int g = 0; g < kNumGroups; ++g) {
                for (int e = 0; e < kGroupDim; ++e) {
                    readout[static_cast<size_t>(e)] +=
                        wgt * emb[g * kGroupDim + e] /
                        static_cast<float>(kNumGroups);
                }
            }
        }
        st.res.predicted_color = bank.classifyColor(readout.data());
        st.res.correct =
            st.res.predicted_color == st.sample->answer_color;
        st.res.readout_attention = std::move(weights_sum);
        st.res.active_original = st.active_orig;
        out.push_back(std::move(st.res));
    }
    return out;
}

std::vector<float>
VlmModel::attentionHeatmap(const VideoSample &sample) const
{
    const int64_t d = prof_.hidden;
    const int64_t hd = prof_.headDim();
    const int64_t m = sample.numVisual();
    const int64_t t = sample.numText();
    Tensor x(m + t, d);
    for (int64_t i = 0; i < m; ++i) {
        std::copy(sample.visual_tokens.row(i),
                  sample.visual_tokens.row(i) + d, x.row(i));
    }
    for (int64_t i = 0; i < t; ++i) {
        std::copy(sample.text_tokens.row(i),
                  sample.text_tokens.row(i) + d, x.row(m + i));
    }
    rmsNormRows(x, layers_.front().n1);

    Tensor q, k;
    gemm(x, layers_.front().wq, q);
    gemm(x, layers_.front().wk, k);
    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
    std::vector<Tensor> head_probs(static_cast<size_t>(prof_.heads));
    for (int h = 0; h < prof_.heads; ++h) {
        const int64_t c0 = static_cast<int64_t>(h) * hd;
        causalHeadProbs(q.row(0) + c0, q.cols(), k.row(0) + c0, k.cols(),
                        m + t, hd, inv_sqrt,
                        head_probs[static_cast<size_t>(h)]);
    }
    return secImportance(head_probs, m, t);
}

} // namespace focus
