/**
 * @file
 * Fig. 13: distribution of concentrated tile lengths (vectors per
 * m=1024 tile after Similarity Gather) over every SIC sub-tile of the
 * run, edge m-tiles included, together with the systolic-array
 * utilization at each length, plus the cycle-weighted average
 * utilization.
 *
 * Paper reference: a broad distribution with most mass at mid-to-high
 * tile lengths and an average utilization of 92.2% — the extremes
 * (near-empty tiles that underutilize, near-full tiles that gain
 * little) are rare.
 */

#include "bench_util.h"

#include "eval/report.h"

using namespace focus;

int
main(int argc, char **argv)
{
    const BenchOptions bo = benchOptions(argc, argv, 6);
    BenchRecorder rec("fig13", bo);
    benchBanner("Fig. 13: concentrated tile-length histogram", bo);

    ExperimentGrid grid(benchEvalOptions(bo));
    grid.add({"Llava-Vid", "VideoMME", MethodConfig::focusFull(),
              AccelConfig::focus()});
    const RunMetrics rm = grid.run().front().metrics;

    const AccelConfig cfg = AccelConfig::focus();
    const int64_t fill = cfg.array_rows + cfg.array_cols - 2;
    const uint64_t tiles = rm.tile_lengths.size();
    const int64_t bins = TileLengthHistogram::kBins;

    TextTable table({"TileLen", "Density", "Utilization"});
    for (int64_t b = 0; b < bins; ++b) {
        const double lo = static_cast<double>(b * cfg.m_tile / bins);
        const double hi =
            static_cast<double>((b + 1) * cfg.m_tile / bins);
        const double mid = 0.5 * (lo + hi);
        const double density = tiles == 0
            ? 0.0
            : static_cast<double>(
                  rm.tile_lengths.counts[static_cast<size_t>(b)]) /
                static_cast<double>(tiles);
        // Utilization of a sub-tile streaming `mid` vectors: useful
        // cycles over useful + fill.
        const double util = mid / (mid + static_cast<double>(fill));
        char range[32];
        std::snprintf(range, sizeof(range), "%4.0f-%4.0f", lo, hi);
        table.addRow({range, fmtF(density, 4), fmtF(util, 3)});
        char key[32];
        std::snprintf(key, sizeof(key), "density_%.0f_%.0f", lo, hi);
        rec.metric(key, density);
    }
    rec.metric("tiles", static_cast<double>(tiles));
    rec.metric("utilization", rm.utilization);

    std::printf("%s\n", table.render().c_str());
    std::printf("Tiles observed: %llu; cycle-weighted array "
                "utilization: %.3f (paper: 0.922)\n",
                static_cast<unsigned long long>(tiles), rm.utilization);
    return 0;
}
