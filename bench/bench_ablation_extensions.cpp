/**
 * @file
 * Ablations of the design choices and extensions DESIGN.md calls out,
 * beyond the paper's main figures:
 *
 *  (a) Adaptive semantic pruning (Sec. VII-D future work): fixed
 *      top-k schedule vs top-p and attention-threshold selection —
 *      accuracy, sparsity, and the run-to-run retention variation
 *      the paper warns about.
 *  (b) Matcher parallelism in the K < 256 corner (Sec. VI-A): a
 *      single matcher approaches the critical path on short-K GEMMs;
 *      parallel matchers (enabled by the conflict-free layout)
 *      restore full overlap.
 *  (c) Weight-traffic sensitivity: how the speedup claim depends on
 *      the input re-read amplification (output-buffer capacity).
 */

#include <cmath>

#include "bench_util.h"

#include "eval/report.h"
#include "sim/systolic.h"

using namespace focus;

int
main(int argc, char **argv)
{
    const BenchOptions bo = benchOptions(argc, argv, 6);
    benchBanner("Ablations: adaptive SEC, matcher parallelism, "
                "buffer sensitivity", bo);

    // One grid for every functional measurement: the five SEC
    // selection rules of (a) plus the Focus trace that (c) sweeps.
    ExperimentGrid grid(benchEvalOptions(bo));

    std::vector<std::pair<std::string, size_t>> rule_ids;
    auto add_rule = [&](const char *name, const MethodConfig &m) {
        ExperimentCell cell{"Llava-Vid", "VideoMME", m};
        cell.simulate = false;
        cell.trace_sparsity = true;
        cell.tag = name;
        rule_ids.emplace_back(name, grid.add(cell));
    };

    add_rule("top-k (Tbl. I)", MethodConfig::focusFull());
    for (double p : {0.85, 0.92, 0.97}) {
        MethodConfig m = MethodConfig::focusFull();
        m.focus.sec.select = SecSelect::TopP;
        m.focus.sec.top_p = p;
        char name[32];
        std::snprintf(name, sizeof(name), "top-p %.2f", p);
        add_rule(name, m);
    }
    {
        MethodConfig m = MethodConfig::focusFull();
        m.focus.sec.select = SecSelect::Threshold;
        m.focus.sec.threshold = 0.05;
        add_rule("threshold 0.05", m);
    }

    ExperimentCell trace_cell{"Llava-Vid", "VideoMME",
                              MethodConfig::focusFull(),
                              AccelConfig::focus()};
    trace_cell.simulate = false;
    trace_cell.keep_trace = true;
    const size_t trace_id = grid.add(trace_cell);

    const std::vector<ExperimentResult> res = grid.run();
    const Evaluator &ev = grid.evaluator("Llava-Vid", "VideoMME");

    // ------------------------------------------------------------
    // (a) adaptive semantic pruning
    // ------------------------------------------------------------
    {
        std::printf("--- (a) SEC selection rule ---\n");
        TextTable t({"Rule", "Sparsity(%)", "Accuracy(%)",
                     "FinalKeep(mean)", "FinalKeep(std)"});

        for (const auto &[name, id] : rule_ids) {
            const ExperimentResult &r = res[id];
            // Per-sample variation of the final retained fraction.
            double mean = 0.0, sq = 0.0;
            for (int s = 0; s < bo.samples; ++s) {
                const VideoSample sample = ev.generator().sample(
                    static_cast<uint64_t>(s));
                const ForwardResult fr = ev.model().forward(
                    sample, r.cell.method, ev.generator().bank());
                const double keep =
                    static_cast<double>(fr.layers.back().visual_out) /
                    static_cast<double>(fr.visual_original);
                mean += keep;
                sq += keep * keep;
            }
            mean /= bo.samples;
            const double var =
                std::max(0.0, sq / bo.samples - mean * mean);
            t.addRow({name, fmtPct(r.trace_sparsity),
                      fmtPct(r.eval.accuracy), fmtF(mean, 3),
                      fmtF(std::sqrt(var), 3)});
        }
        std::printf("%s\n", t.render().c_str());
        std::printf("Adaptive rules trade the fixed schedule's "
                    "predictability for input-dependent retention "
                    "(non-zero FinalKeep std), the paper's stated "
                    "caveat.\n\n");
    }

    // ------------------------------------------------------------
    // (b) matcher parallelism in the K < 256 corner
    // ------------------------------------------------------------
    {
        std::printf("--- (b) similarity matchers vs K ---\n");
        TextTable t({"K", "Matchers", "MatcherStall(cyc)",
                     "TileCycles"});
        for (int64_t k : {3584, 256, 128, 64}) {
            for (int matchers : {1, 4}) {
                AccelConfig cfg = AccelConfig::focus();
                cfg.sic_matchers = matchers;
                FracSampler psi(nullptr, 1.0);
                std::vector<int64_t> dense_log; // stays empty
                const GemmTiming gt = timeGemm(cfg, 1024, k, 32, psi,
                                               false, true, dense_log);
                t.addRow({std::to_string(k),
                          std::to_string(matchers),
                          std::to_string(gt.stall_matcher),
                          std::to_string(gt.cycles)});
            }
        }
        std::printf("%s\n", t.render().c_str());
        std::printf("Matching the paper's Sec. VI-A analysis: the "
                    "matcher only approaches the critical path for "
                    "K < 256, and parallel matchers (conflict-free "
                    "banking) remove the stall.\n\n");
    }

    // ------------------------------------------------------------
    // (c) output-buffer capacity sensitivity
    // ------------------------------------------------------------
    {
        std::printf("--- (c) output-buffer capacity ---\n");
        const WorkloadTrace &focus_tr = res[trace_id].trace;
        const WorkloadTrace dense_tr =
            buildDenseTrace(ev.modelProfile(), ev.datasetProfile());
        TextTable t({"OutBuf(KB)", "Speedup", "DRAM(GB)"});
        for (int64_t kb : {128, 256, 512, 1024, 2048}) {
            AccelConfig cfg = AccelConfig::focus();
            cfg.output_buffer = kb * 1024;
            AccelConfig sa_cfg = AccelConfig::systolicArray();
            sa_cfg.output_buffer = kb * 1024;
            const RunMetrics sa =
                simulateAccelerator(sa_cfg, dense_tr);
            const RunMetrics fo = simulateAccelerator(cfg, focus_tr);
            t.addRow({std::to_string(kb),
                      fmtX(static_cast<double>(sa.cycles) /
                           fo.cycles),
                      fmtF(static_cast<double>(fo.dramTotalBytes()) /
                           1e9, 1)});
        }
        std::printf("%s\n", t.render().c_str());
        std::printf("Focus's input compression also shrinks the "
                    "re-read traffic that smaller output buffers "
                    "amplify, so the speedup is robust to the buffer "
                    "budget.\n");
    }
    return 0;
}
