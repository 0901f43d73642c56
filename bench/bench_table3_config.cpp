/**
 * @file
 * Table III: configuration comparison of Focus and the baseline
 * architectures — PE array, buffers, DRAM bandwidth, on-chip area and
 * power (power measured on the Llava-Vid x VideoMME workload, as in
 * the paper).
 *
 * Paper reference: area 3.12 / 3.38 / 3.58 / 3.21 mm^2 and on-chip
 * power 720 / 1176 / 832 / 736 mW for SA / AdapTiV / CMC / Focus.
 */

#include "bench_util.h"

#include "eval/report.h"
#include "sim/area.h"

using namespace focus;

int
main(int argc, char **argv)
{
    const BenchOptions bo = benchOptions(argc, argv, 6);
    BenchRecorder rec("table3", bo);
    benchBanner("Table III: architecture configuration comparison",
                bo);

    struct Row
    {
        MethodConfig method;
        AccelConfig accel;
    };
    const std::vector<Row> rows = {
        {MethodConfig::dense(), AccelConfig::systolicArray()},
        {MethodConfig::adaptivBaseline(), AccelConfig::adaptiv()},
        {MethodConfig::cmcBaseline(), AccelConfig::cmc()},
        {MethodConfig::focusFull(), AccelConfig::focus()},
    };

    ExperimentGrid grid(benchEvalOptions(bo));
    for (const Row &row : rows) {
        grid.add({"Llava-Vid", "VideoMME", row.method, row.accel});
    }
    const std::vector<ExperimentResult> res = grid.run();

    const char *tags[] = {"sa", "adaptiv", "cmc", "focus"};
    TextTable table({"Architecture", "PE Array", "Buffer(KB)",
                     "DRAM(GB/s)", "Area(mm2)", "OnChipPower(mW)"});
    for (size_t i = 0; i < res.size(); ++i) {
        const ExperimentResult &r = res[i];
        const AccelConfig &accel = r.cell.accel;
        char pe[32];
        std::snprintf(pe, sizeof(pe), "%dx%d", accel.array_rows,
                      accel.array_cols);
        const double bw = accel.dram.bytes_per_cycle_per_channel *
            accel.dram.channels * accel.freq_ghz;
        table.addRow({accel.name, pe,
                      fmtF(static_cast<double>(
                               accel.totalBufferBytes()) / 1024.0,
                           0),
                      fmtF(bw, 0), fmtF(totalArea(accel), 2),
                      fmtF(r.metrics.onChipPowerW() * 1e3, 0)});
        const std::string tag = tags[i];
        rec.metric(tag + "_area_mm2", totalArea(accel));
        rec.metric(tag + "_onchip_power_mw",
                   r.metrics.onChipPowerW() * 1e3);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Paper reference: area 3.12/3.38/3.58/3.21 mm2, "
                "power 720/1176/832/736 mW\n");
    return 0;
}
