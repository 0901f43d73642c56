#include "common/stats.h"

#include <algorithm>

#include "common/logging.h"

namespace focus
{

Histogram::Histogram(double lo, double hi, int bins)
    : lo_(lo), hi_(hi), counts_(static_cast<size_t>(bins), 0), total_(0)
{
    if (bins <= 0 || hi <= lo) {
        panic("Histogram: invalid range [%f, %f) with %d bins",
              lo, hi, bins);
    }
}

void
Histogram::add(double v)
{
    const double frac = (v - lo_) / (hi_ - lo_);
    int idx = static_cast<int>(frac * static_cast<double>(counts_.size()));
    idx = std::clamp(idx, 0, static_cast<int>(counts_.size()) - 1);
    counts_[static_cast<size_t>(idx)] += 1;
    ++total_;
    raw_.push_back(v);
}

double
Histogram::binLo(int i) const
{
    return lo_ + (hi_ - lo_) * static_cast<double>(i) /
        static_cast<double>(counts_.size());
}

double
Histogram::binHi(int i) const
{
    return binLo(i + 1);
}

double
Histogram::cdfAt(double v) const
{
    if (raw_.empty()) {
        return 0.0;
    }
    uint64_t n = 0;
    for (double x : raw_) {
        if (x <= v) {
            ++n;
        }
    }
    return static_cast<double>(n) / static_cast<double>(raw_.size());
}

} // namespace focus
