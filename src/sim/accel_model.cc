#include "sim/accel_model.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
#include "sim/dram.h"
#include "sim/systolic.h"

namespace focus
{

namespace
{

/** Bytes of a similarity map for @p vectors compact-index entries. */
uint64_t
mapBytes(double vectors)
{
    // 2-byte compact index per vector position (10 bits padded).
    return static_cast<uint64_t>(std::llround(vectors * 2.0));
}

/**
 * One-time config validation at simulation entry: every division in
 * the cycle/traffic models below assumes positive dimensions, so a
 * non-positive value panics here instead of silently flooring to 1
 * (or dividing by zero) deep inside a tile walk.
 */
void
validateAccelConfig(const AccelConfig &cfg)
{
    if (cfg.array_rows <= 0 || cfg.array_cols <= 0 ||
        cfg.m_tile <= 0 || cfg.sec_lanes <= 0 ||
        cfg.vector_size <= 0 || cfg.scatter_accumulators <= 0 ||
        cfg.sic_matchers <= 0) {
        panic("simulateAccelerator: non-positive AccelConfig "
              "dimension (array_rows=%d array_cols=%d m_tile=%" PRId64
              " sec_lanes=%d vector_size=%d scatter_accumulators=%d "
              "sic_matchers=%d)",
              cfg.array_rows, cfg.array_cols, cfg.m_tile,
              cfg.sec_lanes, cfg.vector_size,
              cfg.scatter_accumulators, cfg.sic_matchers);
    }
    if (cfg.link_bytes_per_cycle <= 0.0 || cfg.link_hop_cycles < 0) {
        panic("simulateAccelerator: invalid interconnect config "
              "(link_bytes_per_cycle=%g link_hop_cycles=%" PRId64 ")",
              cfg.link_bytes_per_cycle, cfg.link_hop_cycles);
    }
}

} // namespace

RunMetrics
simulateAccelerator(const AccelConfig &cfg, const WorkloadTrace &trace,
                    const EnergyParams &ep, GemmTimer timer)
{
    validateAccelConfig(cfg);

    RunMetrics rm;
    rm.arch = cfg.name;
    rm.method = trace.method;
    rm.freq_ghz = cfg.freq_ghz;

    DramModel dram(cfg.dram);
    FracSampler psi_dist(&trace.tile_fracs, 1.0);
    const GemmTimer time_gemm = timer != nullptr ? timer : timeGemm;

    const bool is_focus_arch = cfg.arch == ArchKind::Focus;
    const bool is_cmc = cfg.arch == ArchKind::CMC;
    const bool is_adaptiv = cfg.arch == ArchKind::AdapTiV;

    // Output-column group that fits the output buffer alongside one
    // m-tile of fp32 partial sums.
    const int64_t n_buffered = std::max<int64_t>(
        cfg.array_cols, cfg.output_buffer / (cfg.m_tile * 4));

    double input_frac_sum = 0.0;
    double input_frac_den = 0.0;

    // AdapTiV stages the uncompressed token matrix through DRAM once
    // for the merge unit (read full, write merged).
    if (is_adaptiv) {
        const uint64_t full = static_cast<uint64_t>(
            trace.visual_original) * trace.hidden * 2;
        const uint64_t merged = static_cast<uint64_t>(trace.visual0) *
            trace.hidden * 2;
        rm.dram_codec_extra += full + merged;
    }

    for (const LayerEvents &layer : trace.layers) {
        uint64_t layer_compute = 0;
        uint64_t layer_dram_bytes = 0;

        for (const GemmEvent &g : layer.gemms) {
            const bool sic_in = g.psi_in < 1.0;
            const bool gather = is_focus_arch && g.gather_out;
            FracSampler mean_sampler(nullptr, g.psi_in);
            FracSampler &sampler =
                trace.tile_fracs.empty() ? mean_sampler : psi_dist;

            const GemmTiming t = time_gemm(cfg, g.m, g.k, g.n, sampler,
                                           sic_in, gather,
                                           rm.tile_lengths);
            layer_compute += t.cycles * g.count;
            rm.stall_scatter += t.stall_scatter * g.count;
            rm.stall_matcher += t.stall_matcher * g.count;
            rm.mac_ops += t.mac_ops * g.count;
            rm.scatter_ops += t.scatter_ops * g.count;
            rm.matcher_ops += t.matcher_ops * g.count;

            // ---- DRAM traffic ----
            const int64_t m_tiles = ceilDiv(g.m, cfg.m_tile);
            const double in_elems = static_cast<double>(g.m) * g.k;
            const double out_elems = static_cast<double>(g.m) * g.n;

            uint64_t in_bytes = 0, w_bytes = 0, out_bytes = 0,
                map_in = 0, map_out = 0, codec_extra = 0;
            if (g.site == GemmSite::Qk || g.site == GemmSite::Pv) {
                // Fused flash-style attention: Q read once, K (and V
                // in PV) streamed per query m-tile; scores stay
                // on-chip, only the PV output is written.
                in_bytes = static_cast<uint64_t>(in_elems * 2.0);
                w_bytes = static_cast<uint64_t>(g.k) * g.n * 2 *
                    m_tiles;
                out_bytes = g.site == GemmSite::Pv
                    ? static_cast<uint64_t>(out_elems * 2.0 *
                                            (g.gather_out ? g.psi_out
                                                          : 1.0))
                    : 0;
                if (g.gather_out && g.site == GemmSite::Pv) {
                    map_out = mapBytes(out_elems /
                                       cfg.vector_size);
                }
            } else {
                const int64_t n_groups = ceilDiv(g.n, n_buffered);
                in_bytes = static_cast<uint64_t>(
                    in_elems * 2.0 * g.psi_in * n_groups);
                if (g.psi_in < 1.0) {
                    map_in = mapBytes(in_elems / cfg.vector_size) *
                        n_groups;
                }
                w_bytes = static_cast<uint64_t>(g.k) * g.n * 2 *
                    m_tiles;
                out_bytes = static_cast<uint64_t>(
                    out_elems * 2.0 *
                    (g.gather_out ? g.psi_out : 1.0));
                if (g.gather_out) {
                    map_out = mapBytes(out_elems / cfg.vector_size);
                }
                const bool cmc_condensed_site =
                    g.site == GemmSite::OProj ||
                    g.site == GemmSite::GateUp ||
                    g.site == GemmSite::Down;
                if (is_cmc && cmc_condensed_site) {
                    // Codec round trip (Fig. 3(a)): the codec's
                    // frame-based matching needs the *full-resolution*
                    // token stream, so the tensor is scattered back to
                    // original token count, staged in DRAM, read by
                    // the codec, and re-written condensed.  Extra vs.
                    // dense: one full-resolution write + read.
                    const double full_elems =
                        static_cast<double>(trace.visual_original +
                                            trace.text) * g.n;
                    codec_extra = static_cast<uint64_t>(
                        2.0 * full_elems * 2.0);
                    rm.merge_ops += full_elems;
                }
            }

            rm.dram_act_read += in_bytes * g.count;
            rm.dram_act_write += out_bytes * g.count;
            rm.dram_weights += w_bytes * g.count;
            rm.dram_maps += (map_in + map_out) * g.count;
            rm.dram_codec_extra += codec_extra * g.count;
            layer_dram_bytes += (in_bytes + out_bytes + w_bytes +
                                 map_in + map_out + codec_extra) *
                g.count;

            // ---- buffer traffic ----
            rm.ib_bytes += in_bytes * g.count;
            rm.wb_bytes += w_bytes * g.count;
            // fp32 read-modify-write per output element per k-subtile.
            rm.ob_bytes += static_cast<uint64_t>(
                out_elems * 8.0 *
                ceilDiv<int64_t>(g.k, cfg.array_rows)) *
                g.count;

            // Fig. 12(b): mean input matrix size vs. dense.
            const double dense_rows = static_cast<double>(
                trace.visual_original + trace.text);
            input_frac_sum += static_cast<double>(g.m) * g.psi_in /
                dense_rows;
            input_frac_den += 1.0;
        }

        // ---- baseline merge-unit activity ----
        if (is_adaptiv) {
            // AdapTiV re-evaluates sign-similarity merges on every
            // layer's token stream (MICRO'24 design), a major power
            // contributor (Tbl. III: 1176 mW vs the 720 mW array).
            rm.merge_ops += static_cast<double>(layer.rowsIn()) *
                trace.hidden;
        }

        // ---- SFU activity ----
        // Softmax and SEC are per-request: in a fused batch trace a
        // query only attends within its own rows, so quadratic terms
        // cost sum(r_i^2) over LayerEvents::queries, never
        // (sum r_i)^2.  The linear rmsnorm/swiglu terms sum either
        // way.  Single-query traces take the scalar path untouched
        // (batch-of-1 bit-identity).  Prefix-cached context rows
        // widen a request's softmax — each query row normalizes over
        // its computed rows *plus* the cached keys — without adding
        // query rows of their own; cached == 0 reproduces the
        // historical r*r term bit for bit (r + 0.0 == r exactly).
        const double rows_in = static_cast<double>(layer.rowsIn());
        const double rows_out = static_cast<double>(layer.rowsOut());
        if (layer.queries.empty()) {
            const double cached =
                static_cast<double>(layer.cached_visual);
            rm.sfu_ops +=
                rows_in * (rows_in + cached) * trace.heads * 3.0;
        } else {
            for (const QueryRows &q : layer.queries) {
                const double r = static_cast<double>(q.rowsIn());
                const double cached =
                    static_cast<double>(q.cached_visual);
                rm.sfu_ops +=
                    r * (r + cached) * trace.heads * 3.0; // softmax
            }
        }
        rm.sfu_ops += 2.0 * rows_in * trace.hidden * 2.0;    // rmsnorm
        rm.sfu_ops += rows_out * trace.ffn_inner * 2.0;      // swiglu

        // ---- SEC ----
        if (layer.sec_topk > 0 && is_focus_arch) {
            const auto secForQuery = [&](int64_t visual_in,
                                         int64_t text, int64_t topk) {
                const double q_rows =
                    static_cast<double>(visual_in + text);
                rm.sec_ops += static_cast<double>(text) * q_rows *
                    trace.heads;         // streaming max
                rm.sec_ops += q_rows *
                    ceilDiv<int64_t>(topk, cfg.sec_lanes);
                const uint64_t stall = secSorterStall(
                    cfg, visual_in, text, trace.head_dim,
                    trace.heads, topk);
                rm.stall_sec += stall;
                layer_compute += stall;
            };
            if (layer.queries.empty()) {
                secForQuery(layer.visual_in, layer.text,
                            layer.sec_topk);
            } else {
                for (const QueryRows &q : layer.queries) {
                    if (q.sec_topk > 0) {
                        secForQuery(q.visual_in, q.text, q.sec_topk);
                    }
                }
            }
        }

        // ---- tensor-parallel collectives ----
        // Row-parallel outputs (O-proj, FFN down) hold partial sums
        // that must meet across the tp_degree shards: a ring
        // reduce-scatter moves the uncompressed fp16 partials, the
        // all-gather redistributes the (psi-compressed when gathered)
        // result, each at (tp-1)/tp of the tensor per shard.  The
        // collective blocks the layer critical path (Megatron-style
        // synchronous TP), so it adds serially after compute/DMA
        // overlap.  Exactly zero at tp_degree == 1.
        uint64_t icx_cycles = 0;
        if (trace.tp_degree > 1) {
            const double tp = static_cast<double>(trace.tp_degree);
            uint64_t icx_bytes = 0;
            for (const GemmEvent &g : layer.gemms) {
                if (g.site != GemmSite::OProj &&
                    g.site != GemmSite::Down) {
                    continue;
                }
                const double elems = static_cast<double>(g.m) * g.n *
                    g.count;
                const double out_psi = is_focus_arch && g.gather_out
                    ? g.psi_out : 1.0;
                const double vol = (tp - 1.0) / tp * elems * 2.0 *
                    (1.0 + out_psi);
                icx_bytes += static_cast<uint64_t>(std::llround(vol));
                icx_cycles += static_cast<uint64_t>(
                    2 * (trace.tp_degree - 1)) *
                    static_cast<uint64_t>(cfg.link_hop_cycles);
            }
            icx_cycles += static_cast<uint64_t>(
                std::llround(static_cast<double>(icx_bytes) /
                             cfg.link_bytes_per_cycle));
            rm.interconnect_bytes += icx_bytes;
            rm.interconnect_cycles += icx_cycles;
        }

        // ---- compute / DMA overlap ----
        const uint64_t dram_cycles = dram.streamCycles(layer_dram_bytes);
        dram.addStreamEnergy(layer_dram_bytes);
        const uint64_t layer_total =
            std::max(layer_compute, dram_cycles) + icx_cycles;
        rm.layer_cycles.push_back(layer_total);
        rm.cycles += layer_total;
    }

    rm.mean_input_frac = input_frac_den > 0.0
        ? input_frac_sum / input_frac_den : 1.0;

    // ---- energy composition ----
    rm.energy.core = rm.mac_ops * ep.e_mac_pj * 1e-12 +
        ep.p_core_leak_mw * 1e-3 * rm.seconds();
    rm.energy.buffer =
        static_cast<double>(rm.ib_bytes) * ep.e_ib_pj_per_byte * 1e-12 +
        static_cast<double>(rm.wb_bytes) * ep.e_wb_pj_per_byte * 1e-12 +
        static_cast<double>(rm.ob_bytes) * ep.e_ob_pj_per_byte * 1e-12;
    rm.energy.sfu = rm.sfu_ops * ep.e_sfu_pj_per_op * 1e-12;
    rm.energy.sec = rm.sec_ops * ep.e_sec_pj_per_op * 1e-12;
    rm.energy.sic = (rm.matcher_ops + rm.scatter_ops) *
        ep.e_sic_pj_per_op * 1e-12;
    rm.energy.merge = rm.merge_ops * ep.e_merge_pj_per_op * 1e-12;
    if (is_cmc) {
        rm.energy.merge += static_cast<double>(rm.dram_codec_extra) *
            ep.e_codec_pj_per_byte * 1e-12;
        rm.energy.merge += ep.p_cmc_codec_mw * 1e-3 * rm.seconds();
    }
    if (is_adaptiv) {
        rm.energy.merge += ep.p_adaptiv_merge_mw * 1e-3 * rm.seconds();
    }
    rm.energy.interconnect = static_cast<double>(rm.interconnect_bytes) *
        ep.e_link_pj_per_byte * 1e-12;
    rm.energy.dram = dram.dynamicEnergyJ() +
        dram.backgroundEnergyJ(rm.cycles, cfg.freq_ghz);

    const double denom = static_cast<double>(rm.cycles) *
        cfg.array_rows * cfg.array_cols;
    rm.utilization = denom > 0.0 ? rm.mac_ops / denom : 0.0;

    return rm;
}

} // namespace focus
