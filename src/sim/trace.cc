#include "sim/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>

#include "common/logging.h"

namespace focus
{

const char *
gemmSiteName(GemmSite s)
{
    switch (s) {
      case GemmSite::Qkv:
        return "qkv";
      case GemmSite::Qk:
        return "qk";
      case GemmSite::Pv:
        return "pv";
      case GemmSite::OProj:
        return "oproj";
      case GemmSite::GateUp:
        return "gate_up";
      case GemmSite::Down:
        return "down";
    }
    return "?";
}

double
WorkloadTrace::totalMacs() const
{
    double total = 0.0;
    for (const LayerEvents &l : layers) {
        for (const GemmEvent &g : l.gemms) {
            total += g.macs();
        }
    }
    return total;
}

int64_t
WorkloadTrace::retainedRows() const
{
    int64_t rows = 0;
    for (const LayerEvents &l : layers) {
        rows += l.rowsIn();
    }
    return rows;
}

namespace
{

/** Value of @p v at reduced layer mapped from full layer index. */
double
mapLayer(const std::vector<double> &v, int l_full, int64_t full_layers,
         double fallback)
{
    if (v.empty()) {
        return fallback;
    }
    const size_t idx = static_cast<size_t>(
        std::min<int64_t>(static_cast<int64_t>(v.size()) - 1,
                          static_cast<int64_t>(v.size()) * l_full /
                              full_layers));
    return v[idx];
}

} // namespace

WorkloadTrace
buildTrace(const ModelProfile &model, const DatasetProfile &dataset,
           const MethodConfig &method, const FunctionalAggregate &agg)
{
    WorkloadTrace tr;
    tr.model = model.name;
    tr.dataset = dataset.name;
    tr.method = method.name();
    tr.text = dataset.full_text_tokens;
    tr.hidden = model.full_hidden;
    tr.heads = model.full_heads;
    tr.head_dim = model.full_head_dim;
    tr.ffn_inner = model.full_ffn_inner;
    tr.visual_original = static_cast<int64_t>(std::llround(
        model.visual_token_scale *
        static_cast<double>(dataset.full_visual_tokens)));
    tr.tile_fracs = agg.tile_fracs;

    const bool is_focus = method.kind == MethodKind::Focus;
    const bool sec_on = is_focus && method.focus.sec_enable;
    const bool sic_on = is_focus && method.focus.sic_enable;

    const int64_t L = model.full_layers;
    const int64_t m_vis = tr.visual_original;
    const int64_t t_cnt = dataset.full_text_tokens;

    // Input-side reduction for the token-merging baselines: the
    // measured initial keep fraction.
    double input_keep = 1.0;
    if (!is_focus && !agg.keep_in.empty()) {
        input_keep = agg.keep_in.front();
    }
    tr.visual0 = static_cast<int64_t>(
        std::llround(input_keep * static_cast<double>(m_vis)));

    int64_t vis_cur = tr.visual0;
    for (int64_t l = 0; l < L; ++l) {
        LayerEvents le;
        le.text = t_cnt;
        le.visual_in = vis_cur;

        // Token counts after this layer.
        int64_t vis_next = vis_cur;
        if (sec_on && method.focus.sec.select == SecSelect::TopK) {
            // Fixed schedule: exact Tbl. I retention at full depth.
            const double keep = model.retentionAfterLayer(
                static_cast<int>(l), static_cast<int>(L));
            const int64_t target = static_cast<int64_t>(
                std::llround(keep * static_cast<double>(m_vis)));
            if (target < vis_cur &&
                model.pruneAtLayer(static_cast<int>(l),
                                   static_cast<int>(L))) {
                vis_next = target;
                le.sec_topk = target;
            }
        } else if (sec_on) {
            // Adaptive selection (top-p / threshold): token counts
            // come from the measured per-layer keep fractions.
            const double keep_out = mapLayer(
                agg.keep_out, static_cast<int>(l), L, 1.0);
            const int64_t target = static_cast<int64_t>(
                std::llround(keep_out * static_cast<double>(m_vis)));
            if (target < vis_cur) {
                vis_next = target;
                le.sec_topk = target;
            }
        }
        le.visual_out = vis_next;

        const int64_t rows_in = le.rowsIn();
        const int64_t rows_out = le.rowsOut();
        const int lf = static_cast<int>(l);

        const double psi_qkv = sic_on && l > 0
            ? mapLayer(agg.psi_qkv, lf, L, 1.0) : 1.0;
        const double psi_oproj = sic_on
            ? mapLayer(agg.psi_oproj, lf, L, 1.0) : 1.0;
        const double psi_ffn = sic_on
            ? mapLayer(agg.psi_ffn, lf, L, 1.0) : 1.0;
        const double psi_down = sic_on
            ? mapLayer(agg.psi_down, lf, L, 1.0) : 1.0;
        // The gathered output of the FFN feeds the next layer's QKV.
        const double psi_next_qkv = sic_on
            ? mapLayer(agg.psi_qkv,
                       static_cast<int>(std::min<int64_t>(l + 1, L - 1)),
                       L, 1.0)
            : 1.0;

        // Q/K/V projections.
        le.gemms.push_back(GemmEvent{GemmSite::Qkv, rows_in, tr.hidden,
                                     tr.hidden, 3, psi_qkv, false, 1.0});
        // Attention scores (per head).
        le.gemms.push_back(GemmEvent{GemmSite::Qk, rows_in,
                                     tr.head_dim, rows_in,
                                     static_cast<int>(tr.heads), 1.0,
                                     false, 1.0});
        // PV: only surviving rows are computed (Sec. V-C); output is
        // gathered (footnote 1).
        le.gemms.push_back(GemmEvent{GemmSite::Pv, rows_out, rows_in,
                                     tr.head_dim,
                                     static_cast<int>(tr.heads), 1.0,
                                     sic_on, psi_oproj});
        // O projection; its (post-residual) output is gathered.
        le.gemms.push_back(GemmEvent{GemmSite::OProj, rows_out,
                                     tr.hidden, tr.hidden, 1,
                                     psi_oproj, sic_on, psi_ffn});
        // FFN gate/up; inner activations gathered.
        le.gemms.push_back(GemmEvent{GemmSite::GateUp, rows_out,
                                     tr.hidden, tr.ffn_inner, 2,
                                     psi_ffn, sic_on, psi_down});
        // FFN down; the block output feeds the next layer's QKV.
        le.gemms.push_back(GemmEvent{GemmSite::Down, rows_out,
                                     tr.ffn_inner, tr.hidden, 1,
                                     psi_down, sic_on, psi_next_qkv});

        tr.layers.push_back(std::move(le));
        vis_cur = vis_next;
    }
    return tr;
}

WorkloadTrace
buildDenseTrace(const ModelProfile &model, const DatasetProfile &dataset)
{
    FunctionalAggregate agg;
    MethodConfig dense = MethodConfig::dense();
    return buildTrace(model, dataset, dense, agg);
}

namespace
{

/** Join the distinct values of @p get over @p parts with '+'. */
std::string
joinUnique(const std::vector<const WorkloadTrace *> &parts,
           const std::string &(*get)(const WorkloadTrace &))
{
    std::vector<std::string> seen;
    for (const WorkloadTrace *p : parts) {
        const std::string &v = get(*p);
        if (std::find(seen.begin(), seen.end(), v) == seen.end()) {
            seen.push_back(v);
        }
    }
    std::string out;
    for (const std::string &v : seen) {
        if (!out.empty()) {
            out += "+";
        }
        out += v;
    }
    return out;
}

/**
 * The single event of @p site in @p layer (panics if not unique).
 * Shared-weight sites stay unique even in fused traces.
 */
const GemmEvent &
findSite(const LayerEvents &layer, GemmSite site)
{
    const GemmEvent *found = nullptr;
    for (const GemmEvent &g : layer.gemms) {
        if (g.site == site) {
            if (found) {
                panic("fuseTraces: duplicate %s event in layer",
                      gemmSiteName(site));
            }
            found = &g;
        }
    }
    if (!found) {
        panic("fuseTraces: missing %s event in layer",
              gemmSiteName(site));
    }
    return *found;
}

/**
 * Append every event of @p site from each part's layer, in part
 * order.  Attention events are per-request, so a fused part
 * contributes one per original request — re-fusing an already-fused
 * trace keeps them all.
 */
void
appendSite(const std::vector<const WorkloadTrace *> &parts,
           size_t layer, GemmSite site, std::vector<GemmEvent> &out)
{
    for (const WorkloadTrace *p : parts) {
        for (const GemmEvent &g : p->layers[layer].gemms) {
            if (g.site == site) {
                out.push_back(g);
            }
        }
    }
}

/**
 * Merge one shared-weight site across parts: rows concatenate and
 * psi values are row-weighted so total MACs are preserved.
 */
GemmEvent
fuseSharedSite(const std::vector<const WorkloadTrace *> &parts,
               size_t layer, GemmSite site)
{
    GemmEvent fused;
    fused.site = site;
    double m_psi_in = 0.0;
    double m_psi_out = 0.0;
    for (const WorkloadTrace *p : parts) {
        const GemmEvent &g = findSite(p->layers[layer], site);
        if (fused.m == 0) {
            fused.k = g.k;
            fused.n = g.n;
            fused.count = g.count;
        } else if (g.k != fused.k || g.n != fused.n ||
                   g.count != fused.count) {
            panic("fuseTraces: %s weight shapes differ across parts "
                  "(%" PRId64 "x%" PRId64 " c%d vs %" PRId64
                  "x%" PRId64 " c%d)",
                  gemmSiteName(site), g.k, g.n, g.count, fused.k,
                  fused.n, fused.count);
        }
        fused.m += g.m;
        m_psi_in += static_cast<double>(g.m) * g.psi_in;
        // A dense part streams its output uncompressed: weight its
        // share with psi = 1 so fused write traffic is preserved.
        m_psi_out += static_cast<double>(g.m) *
            (g.gather_out ? g.psi_out : 1.0);
        fused.gather_out = fused.gather_out || g.gather_out;
    }
    const double m_total = static_cast<double>(fused.m);
    fused.psi_in = fused.m > 0 ? m_psi_in / m_total : 1.0;
    fused.psi_out = fused.m > 0 ? m_psi_out / m_total : 1.0;
    return fused;
}

} // namespace

WorkloadTrace
fuseTraces(const std::vector<const WorkloadTrace *> &parts)
{
    if (parts.empty()) {
        panic("fuseTraces: empty part list");
    }
    for (const WorkloadTrace *p : parts) {
        if (!p) {
            panic("fuseTraces: null part");
        }
    }
    if (parts.size() == 1) {
        return *parts[0];
    }

    const WorkloadTrace &head = *parts[0];
    for (const WorkloadTrace *p : parts) {
        if (p->hidden != head.hidden || p->heads != head.heads ||
            p->head_dim != head.head_dim ||
            p->ffn_inner != head.ffn_inner ||
            p->layers.size() != head.layers.size()) {
            fatal("fuseTraces: incompatible backbone geometry "
                  "('%s' vs '%s'); co-batching requires shared "
                  "weights",
                  p->model.c_str(), head.model.c_str());
        }
    }

    WorkloadTrace tr;
    tr.model = joinUnique(
        parts, +[](const WorkloadTrace &t) -> const std::string & {
            return t.model;
        });
    tr.dataset = joinUnique(
        parts, +[](const WorkloadTrace &t) -> const std::string & {
            return t.dataset;
        });
    tr.method = joinUnique(
        parts, +[](const WorkloadTrace &t) -> const std::string & {
            return t.method;
        });
    tr.hidden = head.hidden;
    tr.heads = head.heads;
    tr.head_dim = head.head_dim;
    tr.ffn_inner = head.ffn_inner;
    tr.batch_size = 0;

    for (const WorkloadTrace *p : parts) {
        tr.visual0 += p->visual0;
        tr.visual_original += p->visual_original;
        tr.text += p->text;
        tr.batch_size += std::max(1, p->batch_size);
        tr.tile_fracs.insert(tr.tile_fracs.end(),
                             p->tile_fracs.begin(),
                             p->tile_fracs.end());
    }
    const size_t L = head.layers.size();
    tr.layers.reserve(L);
    for (size_t l = 0; l < L; ++l) {
        LayerEvents le;
        for (const WorkloadTrace *p : parts) {
            const LayerEvents &pl = p->layers[l];
            le.visual_in += pl.visual_in;
            le.visual_out += pl.visual_out;
            le.text += pl.text;
            le.sec_topk += pl.sec_topk;
            le.cached_visual += pl.cached_visual;
            if (pl.queries.empty()) {
                le.queries.push_back(QueryRows{pl.visual_in,
                                               pl.visual_out, pl.text,
                                               pl.sec_topk,
                                               pl.cached_visual});
            } else {
                // Re-fusing an already-fused trace keeps the
                // original per-request spans flat.
                le.queries.insert(le.queries.end(),
                                  pl.queries.begin(),
                                  pl.queries.end());
            }
        }

        le.gemms.push_back(fuseSharedSite(parts, l, GemmSite::Qkv));
        appendSite(parts, l, GemmSite::Qk, le.gemms);
        appendSite(parts, l, GemmSite::Pv, le.gemms);
        le.gemms.push_back(fuseSharedSite(parts, l, GemmSite::OProj));
        le.gemms.push_back(fuseSharedSite(parts, l, GemmSite::GateUp));
        le.gemms.push_back(fuseSharedSite(parts, l, GemmSite::Down));

        tr.layers.push_back(std::move(le));
    }
    return tr;
}

WorkloadTrace
applyPrefixCache(const WorkloadTrace &trace)
{
    if (trace.batch_size != 1) {
        panic("applyPrefixCache: want a single-query trace, got a "
              "fused batch of %d", trace.batch_size);
    }
    if (trace.tp_degree != 1) {
        panic("applyPrefixCache: want an unsplit trace, got a "
              "tensor-parallel shard (tp=%d)", trace.tp_degree);
    }
    if (trace.layers.empty()) {
        panic("applyPrefixCache: empty trace");
    }

    WorkloadTrace tr = trace;
    // No visual rows enter layer 0 — the retained set is restored
    // from the cache, not recomputed from the frame stream.
    tr.visual0 = 0;
    // SIC never runs on the hit path, so the empirical per-tile
    // distribution must not be sampled (sampler-order invariant).
    tr.tile_fracs.clear();

    for (LayerEvents &le : tr.layers) {
        const int64_t cached = le.visual_in;
        const int64_t text = le.text;
        const int64_t keys = text + cached;
        le.cached_visual = cached;
        le.visual_in = 0;
        le.visual_out = 0;
        le.sec_topk = 0;
        le.queries.clear();

        for (GemmEvent &g : le.gemms) {
            // Text rows only through every site; the attention
            // events keep the full original key/value set so the
            // cached-KV stream (w_bytes per query m-tile) and the
            // softmax width are charged against the cached rows.
            switch (g.site) {
              case GemmSite::Qk:
                g.m = text;
                g.n = keys;
                break;
              case GemmSite::Pv:
                g.m = text;
                g.k = keys;
                break;
              case GemmSite::Qkv:
              case GemmSite::OProj:
              case GemmSite::GateUp:
              case GemmSite::Down:
                g.m = text;
                break;
            }
            g.psi_in = 1.0;
            g.gather_out = false;
            g.psi_out = 1.0;
        }
    }
    return tr;
}

TraceWork
traceWork(const WorkloadTrace &trace)
{
    TraceWork w;
    w.retained_rows = trace.retainedRows();
    for (const LayerEvents &l : trace.layers) {
        for (const GemmEvent &g : l.gemms) {
            w.dense_macs += g.m * g.k * g.n * g.count;
            w.weighted_macs += g.macs();
            w.weight_bytes += g.k * g.n * 2 * g.count;
        }
    }
    return w;
}

namespace
{

/** Shard @p shard's share of an exact integer @p total / @p shards
    partition (the first total%shards shards get one extra). */
int64_t
shardShare(int64_t total, int shard, int shards)
{
    return total / shards + (shard < total % shards ? 1 : 0);
}

} // namespace

std::vector<WorkloadTrace>
splitTensorParallel(const WorkloadTrace &trace, int tp)
{
    if (tp <= 0) {
        fatal("splitTensorParallel: invalid split factor %d (want a "
              "positive tensor-parallel degree)", tp);
    }
    if (tp == 1) {
        return {trace};
    }
    if (static_cast<int64_t>(tp) > trace.heads) {
        fatal("splitTensorParallel: invalid split factor %d (trace "
              "has %" PRId64 " attention heads; a shard would own "
              "none)", tp, trace.heads);
    }

    std::vector<WorkloadTrace> shards;
    shards.reserve(static_cast<size_t>(tp));
    for (int r = 0; r < tp; ++r) {
        WorkloadTrace sh = trace;
        sh.tp_degree = tp;
        // The shard's private head and FFN-inner slices drive the
        // per-shard softmax / swiglu SFU accounting.
        sh.heads = shardShare(trace.heads, r, tp);
        sh.ffn_inner = shardShare(trace.ffn_inner, r, tp);
        for (LayerEvents &le : sh.layers) {
            for (GemmEvent &g : le.gemms) {
                switch (g.site) {
                  case GemmSite::Qkv:
                  case GemmSite::GateUp:
                    // Column-parallel: output dim partitions.
                    g.n = shardShare(g.n, r, tp);
                    break;
                  case GemmSite::OProj:
                  case GemmSite::Down:
                    // Row-parallel: inner dim partitions; the partial
                    // sums meet in the post-layer all-reduce.
                    g.k = shardShare(g.k, r, tp);
                    break;
                  case GemmSite::Qk:
                  case GemmSite::Pv:
                    // Per-head events partition by head count.
                    g.count = static_cast<int>(
                        shardShare(g.count, r, tp));
                    break;
                }
            }
        }
        shards.push_back(std::move(sh));
    }
    return shards;
}

} // namespace focus
