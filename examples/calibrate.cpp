/**
 * @file
 * Calibration probe (development utility): sweeps baseline thresholds
 * and dumps Focus per-layer concentration state so the default
 * hyper-parameters can be placed in the paper's operating regime.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/parse.h"
#include "eval/evaluator.h"

using namespace focus;

int
main(int argc, char **argv)
{
    EvalOptions opts;
    opts.samples = argc > 1 ? parsePositiveInt(argv[1], "sample count")
                           : 8;
    const std::string dataset = argc > 2 ? argv[2] : "VideoMME";

    Evaluator ev("Llava-Vid", dataset, opts);

    std::printf("== dense ==\n");
    const MethodEval dense = ev.runFunctional(MethodConfig::dense());
    std::printf("accuracy %.3f\n\n", dense.accuracy);

    std::printf("== adaptiv sign-threshold sweep ==\n");
    for (double th : {0.60, 0.65, 0.70, 0.72, 0.75, 0.78}) {
        MethodConfig m = MethodConfig::adaptivBaseline();
        m.adaptiv.sign_threshold = th;
        const MethodEval e = ev.runFunctional(m);
        std::printf("th=%.2f  keep=%.3f sparsity=%.3f acc=%.3f\n", th,
                    e.agg.keep_in.front(), e.sparsity, e.accuracy);
    }

    std::printf("\n== cmc sad-threshold sweep ==\n");
    for (double th : {0.5, 0.7, 0.9, 1.1, 1.3, 1.5}) {
        MethodConfig m = MethodConfig::cmcBaseline();
        m.cmc.sad_threshold = th;
        const MethodEval e = ev.runFunctional(m);
        std::printf("th=%.2f  keep=%.3f sparsity=%.3f acc=%.3f\n", th,
                    e.agg.keep_in.front(), e.sparsity, e.accuracy);
    }

    std::printf("\n== focus threshold sweep ==\n");
    for (double th : {0.80, 0.85, 0.90, 0.95}) {
        MethodConfig m = MethodConfig::focusFull();
        m.focus.sic.threshold = static_cast<float>(th);
        const MethodEval e = ev.runFunctional(m);
        std::printf("th=%.2f sparsity=%.3f acc=%.3f\n", th, e.sparsity,
                    e.accuracy);
        std::printf("  layer: keep_in/out  psi qkv/oproj/ffn/down\n");
        for (int l = 0; l < e.agg.reduced_layers; ++l) {
            std::printf("  L%d: %.2f/%.2f  %.2f %.2f %.2f %.2f\n", l,
                        e.agg.keep_in[l], e.agg.keep_out[l],
                        e.agg.psi_qkv[l], e.agg.psi_oproj[l],
                        e.agg.psi_ffn[l], e.agg.psi_down[l]);
        }
    }
    return 0;
}
