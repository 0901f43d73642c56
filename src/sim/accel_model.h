/**
 * @file
 * End-to-end accelerator simulation: trace -> cycles, traffic,
 * energy, utilization.
 *
 * The model walks every GEMM event of a WorkloadTrace through the
 * systolic-array cycle model, accounts DRAM traffic with
 * buffer-capacity-aware reuse (inputs re-read per output-column
 * group, weights re-read per m-tile, outputs written once), overlaps
 * DMA with compute per layer, and applies the architecture-specific
 * behaviours:
 *
 *  - Focus: compressed reads/writes at gathered sites (+ similarity
 *    map overhead), SEC sorter overlap check, scatter/matcher stalls.
 *  - CMC: per-tensor codec round trip — write full, read full (codec),
 *    write compressed, read compressed (Fig. 3(a)); codec energy.
 *  - AdapTiV: uncompressed input staging pass + merge-unit energy.
 *  - SystolicArray: dense everything.
 */

#ifndef FOCUS_SIM_ACCEL_MODEL_H
#define FOCUS_SIM_ACCEL_MODEL_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/accel_config.h"
#include "sim/energy.h"
#include "sim/systolic.h"
#include "sim/trace.h"

namespace focus
{

/** Simulation output for one (architecture, trace) pair. */
struct RunMetrics
{
    std::string arch;
    std::string method;
    double freq_ghz = 0.5;

    uint64_t cycles = 0;
    uint64_t stall_scatter = 0;
    uint64_t stall_matcher = 0;
    uint64_t stall_sec = 0;

    double mac_ops = 0.0;
    double scatter_ops = 0.0;
    double matcher_ops = 0.0;
    double sec_ops = 0.0;
    double sfu_ops = 0.0;
    double merge_ops = 0.0;

    // DRAM traffic (bytes)
    uint64_t dram_act_read = 0;
    uint64_t dram_act_write = 0;
    uint64_t dram_weights = 0;
    uint64_t dram_maps = 0;
    uint64_t dram_codec_extra = 0;

    // On-chip buffer traffic (bytes)
    uint64_t ib_bytes = 0;
    uint64_t wb_bytes = 0;
    uint64_t ob_bytes = 0;

    /**
     * Tensor-parallel ring-collective traffic and (serialized)
     * cycles; exactly zero unless the trace carries tp_degree > 1, so
     * single-engine results are bit-identical to pre-TP builds.
     */
    uint64_t interconnect_bytes = 0;
    uint64_t interconnect_cycles = 0;

    /**
     * Per-layer critical-path cycles (compute/DMA overlap plus the
     * layer's collective cost).  Sums to `cycles`; the cluster
     * layer's continuous batching reads the prefix up to the SEC
     * shrink knee to decide when the array can accept the next batch.
     */
    std::vector<uint64_t> layer_cycles;

    EnergyBreakdown energy;

    /** Cycle-weighted PE utilization. */
    double utilization = 0.0;

    /** Concentrated tile lengths (Fig. 13); empty unless SIC ran. */
    std::vector<int64_t> tile_lengths;

    /** Mean input-matrix size relative to dense (Fig. 12(b)). */
    double mean_input_frac = 1.0;

    double
    seconds() const
    {
        return static_cast<double>(cycles) / (freq_ghz * 1e9);
    }

    uint64_t
    dramActivationBytes() const
    {
        return dram_act_read + dram_act_write + dram_maps +
            dram_codec_extra;
    }

    uint64_t
    dramTotalBytes() const
    {
        return dramActivationBytes() + dram_weights;
    }

    double
    onChipPowerW() const
    {
        const double s = seconds();
        return s > 0.0 ? energy.onChip() / s : 0.0;
    }

    double
    totalPowerW() const
    {
        const double s = seconds();
        return s > 0.0 ? energy.total() / s : 0.0;
    }
};

/**
 * Simulate @p trace on @p cfg.  Every GEMM is timed by timeGemm; a
 * non-null @p timer replaces it (tests/test_sim_equiv.cc passes the
 * per-tile reference walk to check the closed form against it).
 */
RunMetrics simulateAccelerator(const AccelConfig &cfg,
                               const WorkloadTrace &trace,
                               const EnergyParams &ep = {},
                               GemmTimer timer = nullptr);

} // namespace focus

#endif // FOCUS_SIM_ACCEL_MODEL_H
