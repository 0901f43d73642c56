/**
 * @file
 * Request-mode DDR4 model (DRAMsim3-lite): per-(channel, bank)
 * open-row state with tRCD/tRP/tBL timing, one burst per command.
 * The simulator costs DRAM traffic in stream mode only
 * (sim/dram.h DramModel); tests/test_dram.cc checks the row-buffer
 * behaviour here and that stream mode agrees with it on a large
 * contiguous read.
 */

#ifndef FOCUS_TESTS_REFERENCE_DRAM_REQUESTS_H
#define FOCUS_TESTS_REFERENCE_DRAM_REQUESTS_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stat_set.h"
#include "sim/accel_config.h"
#include "sim/dram.h"

namespace focus
{
namespace reference
{

class DramRequests
{
  public:
    explicit DramRequests(const DramConfig &cfg)
        : cfg_(cfg),
          open_row_(static_cast<size_t>(cfg.channels *
                                        cfg.banks_per_channel),
                    -1)
    {
    }

    /**
     * Access @p bytes starting at @p addr.  Returns the channel busy
     * cycles consumed (the caller may overlap across channels).
     * Updates open-row state, counters and energy.
     */
    uint64_t
    access(uint64_t addr, uint64_t bytes, bool write)
    {
        uint64_t busy = 0;
        const uint64_t first = addr / kDramBurstBytes;
        const uint64_t last =
            (addr + std::max<uint64_t>(bytes, 1) - 1) / kDramBurstBytes;
        for (uint64_t b = first; b <= last; ++b) {
            int channel, bank;
            int64_t row;
            mapAddress(b * kDramBurstBytes, channel, bank, row);
            int64_t &open = open_row_[static_cast<size_t>(
                channel * cfg_.banks_per_channel + bank)];
            if (open != row) {
                // Precharge (if a row was open) + activate.
                busy += (open >= 0 ? cfg_.t_rp : 0) + cfg_.t_rcd;
                open = row;
                ++activates_;
                stats.inc(write ? "row_miss_wr" : "row_miss_rd");
            } else {
                stats.inc(write ? "row_hit_wr" : "row_hit_rd");
            }
            // Column access; CAS latency pipelines with the data
            // burst for back-to-back accesses, so only the first in a
            // row run pays it — approximated by folding tCL into row
            // misses.
            busy += cfg_.t_bl;
            bytes_moved_ += kDramBurstBytes;
        }
        stats.inc(write ? "bytes_written" : "bytes_read",
                  (last - first + 1) * kDramBurstBytes);
        return busy;
    }

    void
    reset()
    {
        std::fill(open_row_.begin(), open_row_.end(), -1);
        bytes_moved_ = 0;
        activates_ = 0;
        stats.clear();
    }

    /** Total bytes moved (reads + writes). */
    uint64_t totalBytes() const { return bytes_moved_; }

    /** Dynamic energy accumulated so far, in joules. */
    double
    dynamicEnergyJ() const
    {
        return static_cast<double>(activates_) * cfg_.e_activate_nj *
            1e-9 +
            static_cast<double>(bytes_moved_) * cfg_.e_rw_pj_per_byte *
            1e-12;
    }

    StatSet stats;

  private:
    /** Decompose an address into (channel, bank, row). */
    void
    mapAddress(uint64_t addr, int &channel, int &bank,
               int64_t &row) const
    {
        // Fine-grained channel interleave at burst granularity, then
        // bank interleave, then row: the address layout that
        // maximizes streaming parallelism.
        const uint64_t burst = addr / kDramBurstBytes;
        channel = static_cast<int>(burst % cfg_.channels);
        const uint64_t per_channel = burst / cfg_.channels;
        const uint64_t bursts_per_row =
            static_cast<uint64_t>(cfg_.row_bytes) / kDramBurstBytes;
        const uint64_t row_linear = per_channel / bursts_per_row;
        bank = static_cast<int>(row_linear % cfg_.banks_per_channel);
        row = static_cast<int64_t>(row_linear / cfg_.banks_per_channel);
    }

    DramConfig cfg_;
    std::vector<int64_t> open_row_; ///< [channel * banks + bank]
    uint64_t bytes_moved_ = 0;
    uint64_t activates_ = 0;
};

} // namespace reference
} // namespace focus

#endif // FOCUS_TESTS_REFERENCE_DRAM_REQUESTS_H
