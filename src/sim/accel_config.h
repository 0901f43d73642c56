/**
 * @file
 * Accelerator configuration (paper Tbl. I and Tbl. III).
 *
 * All baseline architectures share frequency, technology, operand
 * width and DRAM bandwidth; they differ in PE array geometry, buffer
 * capacity, and which concentration unit (if any) is attached.
 */

#ifndef FOCUS_SIM_ACCEL_CONFIG_H
#define FOCUS_SIM_ACCEL_CONFIG_H

#include <cstdint>
#include <string>

namespace focus
{

/** Which accelerator architecture a simulation models. */
enum class ArchKind
{
    SystolicArray, ///< vanilla dense baseline
    AdapTiV,       ///< 16x64 array + sign-similarity merge unit
    CMC,           ///< 32x32 array + off-chip codec unit
    Focus,         ///< 32x32 array + Focus unit (SEC + SIC)
};

/** DDR4 configuration ("DDR4 4Gb x16, 2133R, 4 channels, 64 GB/s"). */
struct DramConfig
{
    int channels = 4;
    int banks_per_channel = 16;
    int64_t row_bytes = 2048;

    /**
     * Peak bytes per accelerator cycle per channel.  64 GB/s total at
     * 500 MHz = 128 B/cycle = 32 B/cycle/channel.
     */
    double bytes_per_cycle_per_channel = 32.0;

    // Timing in accelerator cycles (2 ns at 500 MHz).
    int t_rcd = 7;  ///< ACT -> column command
    int t_rp = 7;   ///< PRE -> ACT
    int t_bl = 2;   ///< data beats per 64 B burst at channel rate

    /** Refresh / maintenance bandwidth derate. */
    double refresh_derate = 0.95;

    // Energy (device-level, DRAMsim3-style constants).
    double e_activate_nj = 2.0;       ///< per row activate+precharge
    double e_rw_pj_per_byte = 35.0;   ///< read/write data movement
    double p_background_mw = 750.0;   ///< static across all channels
};

/** Full accelerator configuration. */
struct AccelConfig
{
    ArchKind arch = ArchKind::Focus;
    std::string name = "Focus";

    // --- compute ---
    int array_rows = 32;   ///< b: K-dimension (rows) of the PE array
    int array_cols = 32;   ///< a: N-dimension (cols) of the PE array
    double freq_ghz = 0.5; ///< 500 MHz

    // --- Focus unit ---
    int64_t m_tile = 1024;      ///< GEMM m tile size
    int vector_size = 32;       ///< SIC vector length (= array_cols)
    int scatter_accumulators = 64; ///< 2a-wide accumulator (Fig. 10(d))
    int sic_matchers = 1;       ///< parallel similarity matchers
    int sec_lanes = 32;         ///< importance/sorter lanes (= a)

    // --- buffers (bytes) ---
    int64_t input_buffer = 128 * 1024;
    int64_t weight_buffer = 78 * 1024;
    int64_t output_buffer = 512 * 1024;
    int64_t layouter_buffer = 16 * 1024;

    // --- memory ---
    DramConfig dram;

    // --- interconnect (tensor-parallel collectives) ---
    /**
     * Per-shard link bandwidth for ring collectives, in bytes per
     * accelerator cycle.  128 B/cycle at 500 MHz = 64 GB/s — an
     * accelerator-class scale-up link matching the DRAM bandwidth.
     * Only exercised when a trace carries tp_degree > 1.
     */
    double link_bytes_per_cycle = 128.0;
    /** Per-hop ring-step latency in accelerator cycles (~1 us). */
    int64_t link_hop_cycles = 500;

    int64_t totalBufferBytes() const
    {
        return input_buffer + weight_buffer + output_buffer +
            layouter_buffer;
    }

    /** Vanilla 32x32 systolic array (Tbl. III column 1). */
    static AccelConfig systolicArray();
    /** AdapTiV: 16x64 array, 768 KB buffer. */
    static AccelConfig adaptiv();
    /** CMC: 32x32 array, 907 KB buffer incl. codec staging. */
    static AccelConfig cmc();
    /** Focus (Tbl. I). */
    static AccelConfig focus();
};

inline AccelConfig
AccelConfig::systolicArray()
{
    AccelConfig c;
    c.arch = ArchKind::SystolicArray;
    c.name = "SystolicArray";
    c.layouter_buffer = 16 * 1024; // same SRAM macro budget
    return c;
}

inline AccelConfig
AccelConfig::adaptiv()
{
    AccelConfig c;
    c.arch = ArchKind::AdapTiV;
    c.name = "Adaptiv";
    c.array_rows = 16;
    c.array_cols = 64;
    c.input_buffer = 160 * 1024;
    c.weight_buffer = 96 * 1024;
    c.output_buffer = 512 * 1024;
    c.layouter_buffer = 0;
    return c;
}

inline AccelConfig
AccelConfig::cmc()
{
    AccelConfig c;
    c.arch = ArchKind::CMC;
    c.name = "CMC";
    c.input_buffer = 128 * 1024;
    c.weight_buffer = 78 * 1024;
    c.output_buffer = 512 * 1024;
    c.layouter_buffer = 189 * 1024; // codec staging buffer
    return c;
}

inline AccelConfig
AccelConfig::focus()
{
    AccelConfig c;
    c.arch = ArchKind::Focus;
    c.name = "Focus";
    return c;
}

} // namespace focus

#endif // FOCUS_SIM_ACCEL_CONFIG_H
