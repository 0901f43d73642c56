/**
 * @file
 * Edge-deployment energy study: joules per video-QA query for each
 * architecture — the deployment argument of the paper's introduction
 * (VLMs on battery-powered edge devices).
 *
 *   edge_energy [samples]
 *
 * Reports per-query latency, average power, energy, and queries per
 * watt-hour for the dense systolic array, AdapTiV, CMC, the Jetson
 * GPU model, and Focus.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/parse.h"
#include "eval/evaluator.h"
#include "eval/report.h"
#include "sim/gpu_model.h"

using namespace focus;

int
main(int argc, char **argv)
{
    EvalOptions opts;
    opts.samples = argc > 1 ? parsePositiveInt(argv[1], "sample count")
                           : 4;

    Evaluator ev("Llava-Vid", "VideoMME", opts);

    struct Entry
    {
        MethodConfig method;
        AccelConfig accel;
    };
    const std::vector<Entry> entries = {
        {MethodConfig::dense(), AccelConfig::systolicArray()},
        {MethodConfig::adaptivBaseline(), AccelConfig::adaptiv()},
        {MethodConfig::cmcBaseline(), AccelConfig::cmc()},
        {MethodConfig::focusFull(), AccelConfig::focus()},
    };

    TextTable table({"Design", "Latency(s)", "AvgPower(W)",
                     "Energy(J)", "Queries/Wh"});
    for (const Entry &e : entries) {
        const RunMetrics rm = ev.simulate(e.method, e.accel);
        const double energy = rm.energy.total();
        table.addRow({e.accel.name, fmtF(rm.seconds(), 2),
                      fmtF(rm.totalPowerW(), 2), fmtF(energy, 1),
                      fmtF(3600.0 / energy, 1)});
    }

    // GPU reference: dense prefill on a Jetson-class device at a
    // representative 10 W board power.
    {
        MethodEval dense_eval;
        ev.simulate(MethodConfig::dense(),
                    AccelConfig::systolicArray(), &dense_eval);
        const WorkloadTrace tr =
            ev.buildFullTrace(MethodConfig::dense(), dense_eval);
        const double secs = gpuSeconds(tr, GpuConfig{}, false);
        const double watts = 10.0;
        table.addRow({"Jetson-GPU", fmtF(secs, 2), fmtF(watts, 2),
                      fmtF(secs * watts, 1),
                      fmtF(3600.0 / (secs * watts), 1)});
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("Per-query energy on one long-video QA prefill "
                "(Llava-Vid x VideoMME scale).  Focus's concentration "
                "turns the same silicon budget into several times "
                "more queries per charge.\n");
    return 0;
}
