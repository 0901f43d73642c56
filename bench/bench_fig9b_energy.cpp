/**
 * @file
 * Fig. 9(b): energy consumption normalized to the dense systolic
 * array, broken into core / buffer / DRAM components.
 *
 * Paper reference: Focus improves energy efficiency by 4.67x over the
 * dense SA, 2.98x over AdapTiV and 3.29x over CMC, with DRAM the
 * largest component in every design.
 */

#include <cmath>

#include "bench_util.h"

#include "eval/report.h"

using namespace focus;

int
main(int argc, char **argv)
{
    const BenchOptions bo = benchOptions(argc, argv, 5);
    BenchRecorder rec("fig9b", bo);
    benchBanner("Fig. 9(b): normalized energy with breakdown", bo);

    TextTable table({"Model", "Dataset", "Arch", "Core", "Buffer",
                     "DRAM", "Total(norm)"});

    struct Geo
    {
        double log_sum = 0.0;
        int n = 0;
        void add(double v) { log_sum += std::log(v); ++n; }
        double mean() const { return std::exp(log_sum / n); }
    };
    Geo g_ada, g_cmc, g_ours;

    // Four architectures per (model, dataset) cell, SA first so its
    // energy normalizes the other three.
    struct Arch
    {
        const char *name;
        MethodConfig method;
        AccelConfig accel;
    };
    const std::vector<Arch> archs = {
        {"SA", MethodConfig::dense(), AccelConfig::systolicArray()},
        {"Adaptiv", MethodConfig::adaptivBaseline(),
         AccelConfig::adaptiv()},
        {"CMC", MethodConfig::cmcBaseline(), AccelConfig::cmc()},
        {"Ours", MethodConfig::focusFull(), AccelConfig::focus()},
    };

    ExperimentGrid grid(benchEvalOptions(bo));
    for (const std::string &model : videoModelNames()) {
        for (const std::string &dataset : videoDatasetNames()) {
            for (const Arch &arch : archs) {
                ExperimentCell cell{model, dataset, arch.method,
                                    arch.accel};
                cell.tag = arch.name;
                grid.add(cell);
            }
        }
    }
    const std::vector<ExperimentResult> res = grid.run();

    for (size_t i = 0; i < res.size(); i += archs.size()) {
        const double base = res[i].metrics.energy.total();
        for (size_t a = 0; a < archs.size(); ++a) {
            const ExperimentResult &r = res[i + a];
            const EnergyBreakdown &en = r.metrics.energy;
            const double core_frac =
                (en.core + en.sfu + en.sec + en.sic + en.merge) /
                base;
            table.addRow({r.cell.model, r.cell.dataset, r.cell.tag,
                          fmtF(core_frac, 3),
                          fmtF(en.buffer / base, 3),
                          fmtF(en.dram / base, 3),
                          fmtF(en.total() / base, 3)});
            if (r.cell.tag == "Adaptiv") {
                g_ada.add(base / en.total());
            } else if (r.cell.tag == "CMC") {
                g_cmc.add(base / en.total());
            } else if (r.cell.tag == "Ours") {
                g_ours.add(base / en.total());
            }
        }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Energy-efficiency geomeans vs SA (paper): "
                "Ours %.2fx (4.67), Adaptiv %.2fx (1.57), "
                "CMC %.2fx (1.42); Ours/Adaptiv = %.2fx (2.98), "
                "Ours/CMC = %.2fx (3.29)\n",
                g_ours.mean(), g_ada.mean(), g_cmc.mean(),
                g_ours.mean() / g_ada.mean(),
                g_ours.mean() / g_cmc.mean());

    rec.metric("geomean_ours_vs_sa", g_ours.mean());
    rec.metric("geomean_adaptiv_vs_sa", g_ada.mean());
    rec.metric("geomean_cmc_vs_sa", g_cmc.mean());
    rec.metric("ours_vs_adaptiv", g_ours.mean() / g_ada.mean());
    rec.metric("ours_vs_cmc", g_ours.mean() / g_cmc.mean());
    return 0;
}
