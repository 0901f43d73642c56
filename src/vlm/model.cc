#include "vlm/model.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/rng.h"
#include "focus/sec.h"
#include "focus/sic.h"
#include "runtime/thread_pool.h"
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

/** One decoder weight matrix: its shape and how it is drawn. */
struct WeightDraw
{
    Tensor VlmModel::LayerWeights::*member;
    int64_t rows;
    int64_t cols;
    double ident;
    double noise;        ///< initWeight's noise, or the in-band noise
    bool band_local;     ///< drawn by initBlockLocalWeight
    double global_noise; ///< cross-band noise when band_local
};

} // namespace

VlmModel::VlmModel(const ModelProfile &profile, uint64_t seed)
    : prof_(profile), layers_(static_cast<size_t>(profile.layers)),
      layers_int8_(static_cast<size_t>(profile.layers))
{
    const int64_t d = prof_.hidden;
    const int64_t inner = prof_.ffnInner();
    // One layer's matrices in draw order.  Identity-heavy Q/K keep
    // cross-modal attention grounded in the input semantics (prompt
    // prototype vs. scene content).
    const WeightDraw draws[] = {
        {&LayerWeights::wq, d, d, 1.6, 0.5, false, 0.0},
        {&LayerWeights::wk, d, d, 1.6, 0.5, false, 0.0},
        {&LayerWeights::wv, d, d, 0.7, 0.3, false, 0.0},
        {&LayerWeights::wo, d, d, 0.25, 0.35, true, 0.12},
        {&LayerWeights::wg, d, inner, 0.0, 1.0, true, 0.30},
        {&LayerWeights::wu, d, inner, 0.0, 1.0, true, 0.30},
        {&LayerWeights::wd, inner, d, 0.0, 0.45, true, 0.15},
    };
    constexpr int64_t kDraws = sizeof(draws) / sizeof(draws[0]);

    // Every matrix draws from one stream, matrix after matrix.  Walk
    // a copy of it to each matrix's start state, so the matrices can
    // fill in parallel from the states the serial draw would reach.
    // A Box-Muller pair costs exactly two raw outputs, so a matrix of
    // an even element count starts on a pair boundary (no cached
    // gaussian in its start state) and advances the stream by its
    // element count.
    Rng rng(seed ^ 0xfeedc0dedeadbeefull);
    std::vector<Rng> starts;
    starts.reserve(static_cast<size_t>(prof_.layers * kDraws));
    for (int l = 0; l < prof_.layers; ++l) {
        for (const WeightDraw &w : draws) {
            const int64_t count = w.rows * w.cols;
            if (count % 2 != 0) {
                panic("VlmModel: a %" PRId64 " x %" PRId64 " weight "
                      "matrix has an odd element count, so the next "
                      "matrix would not start on a Box-Muller pair "
                      "boundary", w.rows, w.cols);
            }
            starts.push_back(rng);
            rng.discard(static_cast<uint64_t>(count));
        }
    }
    ThreadPool::global().parallelFor(
        static_cast<int64_t>(starts.size()), [&](int64_t t) {
            const WeightDraw &w = draws[t % kDraws];
            const size_t l = static_cast<size_t>(t / kDraws);
            Rng r = starts[static_cast<size_t>(t)];
            Tensor &dst = layers_[l].*w.member;
            dst = w.band_local
                ? initBlockLocalWeight(r, w.rows, w.cols, w.ident,
                                       w.noise, w.global_noise,
                                       kNumGroups)
                : initWeight(r, w.rows, w.cols, w.ident, w.noise);
            // Per-row symmetric int8 (the MethodConfig::int8 variant).
            Tensor &q = layers_int8_[l].*w.member;
            q = dst;
            roundRowsToInt8(q);
        });
    for (size_t l = 0; l < layers_.size(); ++l) {
        LayerWeights &w = layers_[l];
        w.n1 = Tensor(d);
        w.n2 = Tensor(d);
        w.n1.fill(1.0f);
        w.n2.fill(1.0f);
        layers_int8_[l].n1 = w.n1;
        layers_int8_[l].n2 = w.n2;
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
    Tensor emb;               ///< preprocessed tokens' mean embeddings
    std::vector<int64_t> ids; ///< preprocessed tokens' original ids

    /**
     * The concentration layout: visual row r is preprocessed token
     * kept[r], then the text rows follow; `sic` is its SIC neighbour
     * table.  SEC prunes `kept` in place and rebuilds `sic`, so `emb`
     * and `ids` are never copied.
     */
    std::vector<int64_t> kept;
    SicNeighbours sic;
    int64_t t_count = 0;
    int64_t m_orig = 0;

    /**
     * First row of the sample's [visual ; text] hidden state in the
     * batch's packed tensor; SEC moves it down.
     */
    int64_t row0 = 0;
    std::vector<int64_t> retained;
    std::vector<int64_t> pv_rows;
    bool pruned = false;
    int64_t rows_after = 0;
    LayerRecord rec; ///< record of the layer in flight

    int64_t visual() const { return static_cast<int64_t>(kept.size()); }
};

/**
 * Pack every head's key panel of @p att into @p panels, then score
 * and normalize the text rows [s, rows) of every head into @p text,
 * one (rows - s) x rows tensor per head (reshaped in place).
 * Stream order is [visual ; text], so text queries see every visual
 * key.  Returns the text row pointers causalAttentionF32 reads.
 */
std::vector<float *>
scoreTextRows(const kernels::CausalHeads &att, int64_t s,
              std::vector<float> &panels, std::vector<Tensor> &text)
{
    panels.resize(static_cast<size_t>(kernels::keyPanelsSize(att)));
    kernels::packKeyPanelsF32(att, panels.data());
    text.resize(static_cast<size_t>(att.heads));
    std::vector<float *> rows(text.size());
    for (size_t h = 0; h < text.size(); ++h) {
        text[h].resize(att.rows - s, att.rows);
        rows[h] = text[h].data();
    }
    kernels::causalTextRowsF32(att, panels.data(), s, rows.data(),
                               att.rows);
    return rows;
}

/**
 * xn = x, RMS-normed by @p gain, then rounded to the method's
 * activation storage (per-row int8 or fp16), in place.  Each step
 * works row by row, so the bits do not depend on how the rows are
 * packed.
 */
void
normRound(const Tensor &x, const Tensor &gain, bool int8, Tensor &xn)
{
    xn = x;
    rmsNormRows(xn, gain);
    if (int8) {
        roundRowsToInt8(xn);
    } else {
        xn.roundToFp16();
    }
}

/**
 * The SIC neighbour table of @p st's layout: its kept visual rows at
 * their tokens' coordinates, then its text rows.
 */
void
buildSicTable(BatchState &st, const SicConfig &cfg)
{
    std::vector<TokenCoord> coords(
        static_cast<size_t>(st.visual() + st.t_count), TokenCoord{-1, 0, 0});
    for (size_t r = 0; r < st.kept.size(); ++r) {
        coords[r] = st.sample->coords[static_cast<size_t>(
            st.ids[static_cast<size_t>(st.kept[r])])];
    }
    st.sic = sicNeighbours(coords, cfg);
}

/**
 * SIC-gather one sample's active rows in place over its layout's
 * table: @p x points at its visual rows, then its text rows, each
 * @p cols wide and packed.  Appends the gather's tile fractions to the
 * layer record and returns the site's unique fraction (its psi).
 */
double
gatherSic(BatchState &st, float *x, int64_t cols, const SicConfig &cfg)
{
    const SicResult g = sicGather(x, cols, cols, st.sic, cfg);
    st.rec.tile_fracs.insert(st.rec.tile_fracs.end(),
                             g.tile_slice_unique_frac.begin(),
                             g.tile_slice_unique_frac.end());
    return g.uniqueFrac();
}

/** x += y over two same-shape tensors: a residual add. */
void
addInPlace(Tensor &x, const Tensor &y)
{
    float *xd = x.data();
    const float *yd = y.data();
    for (int64_t i = 0; i < x.numel(); ++i) {
        xd[i] += yd[i];
    }
}

} // namespace

std::vector<ForwardResult>
VlmModel::forwardBatch(const VideoSample *const *samples, int64_t count,
                       const MethodConfig &method,
                       const PrototypeBank &bank) const
{
    // The batch's hidden state is one packed tensor from the
    // embeddings to the readout.  Row-wise steps (RMSNorm, rounding,
    // the GEMMs, the residual adds) run once over all of it; everything
    // whose value could depend on evaluation order (softmax, SEC, SIC,
    // readout sums) runs per sample on the sample's own row range, so
    // no batch split changes a result.
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
    const SicConfig &sic = method.focus.sic;

    std::vector<BatchState> states(static_cast<size_t>(count));

    // The packed hidden state x, its normed copy xn, the projections,
    // the attention output ao, the FFN activations, and one sample's
    // key panels and text-row probabilities: kept per thread across
    // layers and calls (Tensor::resize keeps their storage), as the
    // GEMM's packed B is.  Reuse cannot change a bit.  Every element
    // is written before it is read: the embedding copies, the attention
    // rows and the GEMM outputs cover their whole shape, and SEC and
    // P*V read only the text-row entries causalTextRowsF32 writes.
    // And the pool never re-enters forwardBatch on a thread, because
    // a caller waiting at its join runs no other job's indices.
    thread_local Tensor x, xn, qp, kp, vp, ao, op, gatep, upp, downp;
    thread_local std::vector<float> panels;
    thread_local std::vector<Tensor> text_probs;

    // ------------------------------------------------------------
    // Preprocess every sample: token-level reduction for the merging
    // baselines, merged-group mean embeddings, then its rows appended
    // to the packed state.
    // ------------------------------------------------------------
    x.resize(0, d);
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

        st.emb = Tensor(s0, d);
        {
            std::vector<int64_t> kept_pos(
                static_cast<size_t>(st.m_orig), -1);
            for (int64_t p = 0; p < s0; ++p) {
                kept_pos[static_cast<size_t>(
                    red.kept[static_cast<size_t>(p)])] = p;
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
                float *dst = st.emb.row(p);
                for (int64_t j = 0; j < d; ++j) {
                    dst[j] += src[j];
                }
                ++counts[static_cast<size_t>(p)];
            }
            for (int64_t p = 0; p < s0; ++p) {
                const float inv = 1.0f /
                    static_cast<float>(std::max<int64_t>(
                        counts[static_cast<size_t>(p)], 1));
                float *dst = st.emb.row(p);
                for (int64_t j = 0; j < d; ++j) {
                    dst[j] *= inv;
                }
            }
        }
        st.ids = std::move(red.kept);
        st.kept.resize(static_cast<size_t>(s0));
        std::iota(st.kept.begin(), st.kept.end(), int64_t{0});
        if (sic_on) {
            buildSicTable(st, sic);
        }

        st.row0 = x.rows();
        x.resize(st.row0 + s0 + st.t_count, d);
        std::copy(st.emb.data(), st.emb.data() + s0 * d, x.row(st.row0));
        std::copy(sample.text_tokens.data(),
                  sample.text_tokens.data() + st.t_count * d,
                  x.row(st.row0 + s0));

        const double rows0 =
            static_cast<double>(st.m_orig + st.t_count);
        const double dense_layer_ops = 3.0 * rows0 * d * d +
            2.0 * rows0 * rows0 * d + 1.0 * rows0 * d * d +
            2.0 * rows0 * d * inner + 1.0 * rows0 * inner * d;
        st.res.dense_ops = dense_layer_ops * prof_.layers;
    }

    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
    for (int l = 0; l < prof_.layers; ++l) {
        const LayerWeights &w = layer_weights[static_cast<size_t>(l)];

        // ---- attention block: norm/round, per-sample SIC, QKV ----
        normRound(x, w.n1, method.int8, xn);
        for (BatchState &st : states) {
            st.rec = LayerRecord();
            st.rec.visual_in = st.visual();
            st.rec.text = st.t_count;
            if (sic_on && l > 0) {
                st.rec.psi_qkv = gatherSic(st, xn.row(st.row0), d, sic);
            }
        }
        gemm(xn, w.wq, qp);
        gemm(xn, w.wk, kp);
        gemm(xn, w.wv, vp);

        // ---- per-sample attention interior ----
        // No (rows x rows) probability matrix exists: the text rows of
        // every head are scored first, SEC selects from them, and
        // causalAttentionF32 then streams the output rows through
        // QK^T, softmax and P*V a small block at a time, never scoring
        // a visual row SEC prunes.  Only the model's op count still
        // charges the full QK^T triangle.  Each sample's output lands
        // in ao at its post-SEC offset, which no later sample's rows
        // reach, so ao is sized to the rows entering the layer and
        // shrunk afterwards.
        ao.resize(x.rows(), d);
        int64_t rows_out = 0;
        for (BatchState &st : states) {
            const int64_t row_in = st.row0;
            const int64_t s_cur = st.visual();
            const int64_t rows = s_cur + st.t_count;
            st.res.ops += 3.0 * static_cast<double>(rows) * d * d *
                st.rec.psi_qkv;
            st.res.ops += static_cast<double>(rows) * rows * d;
            kernels::CausalHeads att;
            att.q = qp.row(row_in);
            att.k = kp.row(row_in);
            att.v = vp.row(row_in);
            att.ld = d;
            att.rows = rows;
            att.heads = prof_.heads;
            att.hd = hd;
            att.scale = inv_sqrt;
            const std::vector<float *> text_rows =
                scoreTextRows(att, s_cur, panels, text_probs);

            st.retained.clear();
            st.pruned = false;
            if (sec_on && prof_.pruneAtLayer(l, prof_.layers)) {
                const std::vector<float> importance = secImportance(
                    text_probs, s_cur, st.t_count);
                switch (method.focus.sec.select) {
                  case SecSelect::TopK: {
                    const double ratio = prof_.retentionAfterLayer(
                        l, prof_.layers);
                    const int64_t want = std::max<int64_t>(
                        1, static_cast<int64_t>(std::llround(
                               ratio *
                               static_cast<double>(st.m_orig))));
                    if (want < s_cur) {
                        st.retained = secTopK(importance, want);
                        st.pruned = true;
                    }
                    break;
                  }
                  case SecSelect::TopP:
                    st.retained =
                        secTopP(importance, method.focus.sec.top_p);
                    st.pruned = static_cast<int64_t>(
                                    st.retained.size()) < s_cur;
                    break;
                  case SecSelect::Threshold:
                    st.retained = secThreshold(
                        importance, method.focus.sec.threshold);
                    st.pruned = static_cast<int64_t>(
                                    st.retained.size()) < s_cur;
                    break;
                }
            }
            const int64_t s_next = st.pruned
                ? static_cast<int64_t>(st.retained.size()) : s_cur;
            st.rows_after = s_next + st.t_count;
            st.rec.visual_out = s_next;
            st.row0 = rows_out;
            rows_out += st.rows_after;

            const int64_t *pv_map = nullptr;
            if (st.pruned) {
                st.pv_rows.resize(static_cast<size_t>(st.rows_after));
                for (int64_t r = 0; r < st.rows_after; ++r) {
                    st.pv_rows[static_cast<size_t>(r)] = r < s_next
                        ? st.retained[static_cast<size_t>(r)]
                        : s_cur + (r - s_next);
                }
                pv_map = st.pv_rows.data();
            }
            kernels::causalAttentionF32(att, panels.data(), s_cur,
                                        text_rows.data(), rows, pv_map,
                                        st.rows_after, ao.row(st.row0),
                                        d);
            st.res.ops +=
                static_cast<double>(st.rows_after) * rows * d;

            // ---- SEC compaction: move the kept rows down ----
            // Offsets never grow and the kept rows ascend (SEC's list,
            // then the text rows), so each destination row is at or
            // below its source and below every source row still to be
            // read: in place, in ascending order.  A sample that keeps
            // every row still moves once an earlier sample pruned.
            if (st.pruned || st.row0 != row_in) {
                for (int64_t r = 0; r < st.rows_after; ++r) {
                    const int64_t src = row_in + (pv_map ? pv_map[r] : r);
                    const int64_t dst = st.row0 + r;
                    if (src != dst) {
                        std::copy(x.row(src), x.row(src) + d, x.row(dst));
                    }
                }
            }
            // SEC's list ascends, so the layout prunes in place too.
            if (st.pruned) {
                for (int64_t r = 0; r < s_next; ++r) {
                    st.kept[static_cast<size_t>(r)] = st.kept[
                        static_cast<size_t>(st.retained[
                            static_cast<size_t>(r)])];
                }
                st.kept.resize(static_cast<size_t>(s_next));
                if (sic_on) {
                    buildSicTable(st, sic);
                }
            }

            if (sic_on) {
                st.rec.psi_oproj = gatherSic(st, ao.row(st.row0), d, sic);
            }
            st.res.ops += static_cast<double>(st.rows_after) * d * d *
                st.rec.psi_oproj;
        }
        x.resize(rows_out, d);
        ao.resize(rows_out, d);

        // ---- O projection and residual ----
        gemm(ao, w.wo, op);
        addInPlace(x, op);

        // ---- FFN block ----
        normRound(x, w.n2, method.int8, xn);
        for (BatchState &st : states) {
            if (sic_on) {
                st.rec.psi_ffn = gatherSic(st, xn.row(st.row0), d, sic);
            }
            st.res.ops += 2.0 * static_cast<double>(st.rows_after) *
                d * inner * st.rec.psi_ffn;
        }
        gemm(xn, w.wg, gatep);
        gemm(xn, w.wu, upp);
        kernels::swigluF32(gatep.data(), upp.data(), gatep.numel());
        for (BatchState &st : states) {
            if (sic_on) {
                st.rec.psi_down =
                    gatherSic(st, gatep.row(st.row0), inner, sic);
            }
            st.res.ops += static_cast<double>(st.rows_after) * inner *
                d * st.rec.psi_down;
            st.res.layers.push_back(std::move(st.rec));
        }
        gemm(gatep, w.wd, downp);
        addInPlace(x, downp);
    }

    // ------------------------------------------------------------
    // Readout: packed query/key projections, per-sample logits.
    // Only the visual rows go through the key projection.
    // ------------------------------------------------------------
    xn = x;
    rmsNormRows(xn, layers_.back().n1);
    int64_t total_vis = 0;
    std::vector<int64_t> offv(static_cast<size_t>(count));
    for (int64_t bi = 0; bi < count; ++bi) {
        offv[static_cast<size_t>(bi)] = total_vis;
        total_vis += states[static_cast<size_t>(bi)].visual();
    }
    Tensor qinp(count, d);
    Tensor visp(total_vis, d);
    for (int64_t bi = 0; bi < count; ++bi) {
        const BatchState &st = states[static_cast<size_t>(bi)];
        const float *rows = xn.row(st.row0);
        const float *qrow =
            rows + (st.visual() + st.sample->query_token) * d;
        std::copy(qrow, qrow + d, qinp.row(bi));
        std::copy(rows, rows + st.visual() * d,
                  visp.row(offv[static_cast<size_t>(bi)]));
    }
    Tensor qvp, kvp;
    gemm(qinp, layers_.back().wq, qvp);
    gemm(visp, layers_.back().wk, kvp);

    out.reserve(static_cast<size_t>(count));
    for (int64_t bi = 0; bi < count; ++bi) {
        BatchState &st = states[static_cast<size_t>(bi)];
        const int64_t s_cur = st.visual();
        std::vector<float> weights_sum(static_cast<size_t>(s_cur), 0.0f);
        std::vector<float> logits(static_cast<size_t>(s_cur));
        for (int h = 0; h < prof_.heads; ++h) {
            const int64_t c0 = static_cast<int64_t>(h) * hd;
            kernels::dotRowsScaled(
                qvp.row(bi) + c0,
                kvp.row(offv[static_cast<size_t>(bi)]) + c0,
                kvp.cols(), s_cur, hd, inv_sqrt, logits.data());
            float mx = -1e30f;
            for (int64_t j = 0; j < s_cur; ++j) {
                mx = std::max(mx, logits[static_cast<size_t>(j)]);
            }
            const float sum = kernels::expBiasedSumF32(
                logits.data(), s_cur, mx);
            for (int64_t j = 0; j < s_cur; ++j) {
                weights_sum[static_cast<size_t>(j)] +=
                    logits[static_cast<size_t>(j)] / sum /
                    static_cast<float>(prof_.heads);
            }
        }

        std::vector<float> readout(static_cast<size_t>(kGroupDim),
                                   0.0f);
        for (int64_t j = 0; j < s_cur; ++j) {
            const float wgt = weights_sum[static_cast<size_t>(j)];
            if (wgt <= 0.0f) {
                continue;
            }
            const float *emb = st.emb.row(st.kept[static_cast<size_t>(j)]);
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
        for (const int64_t tok : st.kept) {
            st.res.active_original.push_back(
                st.ids[static_cast<size_t>(tok)]);
        }
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
    kernels::CausalHeads att;
    att.q = q.data();
    att.k = k.data();
    att.ld = d;
    att.rows = m + t;
    att.heads = prof_.heads;
    att.hd = hd;
    att.scale = 1.0f / std::sqrt(static_cast<float>(hd));
    std::vector<float> panels;
    std::vector<Tensor> text_probs;
    scoreTextRows(att, m, panels, text_probs);
    return secImportance(text_probs, m, t);
}

} // namespace focus
