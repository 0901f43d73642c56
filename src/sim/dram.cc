#include "sim/dram.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"

namespace focus
{

DramModel::DramModel(const DramConfig &cfg) : cfg_(cfg) {}

double
DramModel::streamEfficiency() const
{
    // Per 2 KB row: data beats vs. the activate/precharge gap that
    // bank interleaving cannot hide.  With >= 4 banks the gap is
    // fully overlapped, leaving only the refresh derate.
    const double data_cycles =
        static_cast<double>(cfg_.row_bytes) / kDramBurstBytes * cfg_.t_bl;
    const double gap = cfg_.t_rp + cfg_.t_rcd;
    const double hidden = std::min(
        gap, data_cycles * (cfg_.banks_per_channel - 1));
    const double eff = data_cycles / (data_cycles + gap - hidden);
    return eff * cfg_.refresh_derate;
}

uint64_t
DramModel::streamCycles(uint64_t bytes) const
{
    const double peak = cfg_.bytes_per_cycle_per_channel *
        cfg_.channels;
    const double cycles =
        static_cast<double>(bytes) / (peak * streamEfficiency());
    return static_cast<uint64_t>(std::ceil(cycles));
}

void
DramModel::addStreamEnergy(uint64_t bytes)
{
    bytes_moved_ += bytes;
    activates_ += ceilDiv<uint64_t>(
        bytes, static_cast<uint64_t>(cfg_.row_bytes));
}

double
DramModel::dynamicEnergyJ() const
{
    return static_cast<double>(activates_) * cfg_.e_activate_nj * 1e-9 +
        static_cast<double>(bytes_moved_) * cfg_.e_rw_pj_per_byte *
        1e-12;
}

double
DramModel::backgroundEnergyJ(uint64_t cycles, double freq_ghz) const
{
    const double seconds = static_cast<double>(cycles) /
        (freq_ghz * 1e9);
    return cfg_.p_background_mw * 1e-3 * seconds;
}

} // namespace focus
