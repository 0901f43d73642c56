/**
 * @file
 * Fixed-bin histograms for the benches' distribution figures
 * (Fig. 2(b), Fig. 13).
 */

#ifndef FOCUS_COMMON_STATS_H
#define FOCUS_COMMON_STATS_H

#include <cstdint>
#include <vector>

namespace focus
{

/**
 * Histogram with uniform bins over [lo, hi); out-of-range samples are
 * clamped into the first/last bin.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, int bins);

    void add(double v);

    int bins() const { return static_cast<int>(counts_.size()); }
    uint64_t binCount(int i) const { return counts_[i]; }
    double binLo(int i) const;
    double binHi(int i) const;
    uint64_t total() const { return total_; }

    /** Fraction of mass at or below @p v (empirical CDF). */
    double cdfAt(double v) const;

  private:
    double lo_;
    double hi_;
    std::vector<uint64_t> counts_;
    uint64_t total_;
    std::vector<double> raw_;
};

} // namespace focus

#endif // FOCUS_COMMON_STATS_H
