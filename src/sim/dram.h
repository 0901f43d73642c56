/**
 * @file
 * DDR4 DRAM model (DRAMsim3-lite), stream mode: the analytic cost of
 * a large contiguous transfer.  Bank interleaving hides activation
 * latency behind row-hit streaming, and refresh derates peak; the
 * request-mode model it is checked against (per-bank open-row state,
 * tRCD/tRP/tBL timing) is tests/reference/dram_requests.h.
 *
 * Energy follows device-level accounting: activates + data movement
 * + background power (added by the caller from elapsed time).
 */

#ifndef FOCUS_SIM_DRAM_H
#define FOCUS_SIM_DRAM_H

#include <cstdint>

#include "sim/accel_config.h"

namespace focus
{

/** Burst granularity: one 64-byte access per command. */
constexpr uint64_t kDramBurstBytes = 64;

/** DDR4 device model. */
class DramModel
{
  public:
    explicit DramModel(const DramConfig &cfg);

    /**
     * Stream mode: cycles to move @p bytes of contiguous data across
     * all channels at streaming efficiency.
     */
    uint64_t streamCycles(uint64_t bytes) const;

    /**
     * Streaming efficiency: fraction of peak bandwidth sustained for
     * large contiguous transfers (row-hit dominated).
     */
    double streamEfficiency() const;

    /** Account the energy of a streamed transfer of @p bytes. */
    void addStreamEnergy(uint64_t bytes);

    /** Dynamic DRAM energy accumulated so far, in joules. */
    double dynamicEnergyJ() const;

    /** Background energy for @p cycles of wall-clock, in joules. */
    double backgroundEnergyJ(uint64_t cycles, double freq_ghz) const;

    /** Total bytes moved (reads + writes). */
    uint64_t totalBytes() const { return bytes_moved_; }

    const DramConfig &config() const { return cfg_; }

  private:
    DramConfig cfg_;
    uint64_t bytes_moved_ = 0;
    uint64_t activates_ = 0;
};

} // namespace focus

#endif // FOCUS_SIM_DRAM_H
