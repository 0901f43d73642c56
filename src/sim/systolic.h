/**
 * @file
 * Cycle model of a weight-stationary systolic array executing one
 * tiled GEMM, with Focus's concentrated-input streaming and scatter
 * accumulation (Sec. VI-C, Fig. 8).
 *
 * Tiling: the m x n output tile is produced by iterating ceil(K/b)
 * weight sub-tiles (k = b rows each); per sub-tile the array streams
 * the p <= m unique input vectors (p = psi * m under SIC) plus the
 * pipeline fill/drain of (a - 1) + (b - 1) cycles.  Weight loads are
 * double-buffered and hidden except the first.  This matches the
 * paper's asymptotic cost of K/b * m cycles per tile.
 *
 * Scatter: reconstructed partial sums must be replicated to all m
 * original rows each sub-tile; with W accumulator lanes this takes
 * m*a/W cycles, overlapping compute — sub-tile latency is the max of
 * the two (Fig. 10(d)).
 *
 * Gather (on the output): the similarity matcher performs up to
 * (block_size-1) comparisons per output vector, 8*m cycles per
 * m x a output tile with one matcher; it runs off the critical path
 * unless the GEMM's per-tile time K/b*m is smaller (K < 256 corner,
 * Sec. VI-A), in which case extra matchers or a stall apply.
 *
 * timeGemm evaluates that model in closed form rather than tile by
 * tile: dense (non-SIC) GEMMs are costed over the <= 2x2 distinct
 * (m-rows, n-cols) edge-tile bands — every per-sub-tile quantity is
 * affine in the tile counts, and all op counters are integer-valued
 * doubles, so the aggregated sums are bit-identical to a per-tile walk
 * for any total below 2^53 (far above paper scale).  SIC GEMMs are
 * data-dependent — one psi draw per sub-tile — but a round-robin
 * sampler makes every draw window a cyclic slice of the distribution,
 * so the per-value arithmetic (p, sub-tile latency, scatter stall) is
 * tabulated once per distinct tile geometry and each window reduces
 * to prefix-sum lookups plus a bulk tile-length append; a mean-backed
 * sampler collapses to closed form outright.  The draw consumption
 * order (m-tile, n-tile, k-sub-tile, exactly one draw per sub-tile) is
 * the walk's.  `tests/test_sim_equiv.cc` asserts all of it bit for
 * bit against the per-tile reference walk in
 * `tests/reference/sim_walk.h`.
 */

#ifndef FOCUS_SIM_SYSTOLIC_H
#define FOCUS_SIM_SYSTOLIC_H

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "sim/accel_config.h"

namespace focus
{

/**
 * Round-robin sampler over an empirical unique-fraction distribution;
 * falls back to a fixed mean when no distribution is available.
 */
class FracSampler
{
  public:
    FracSampler(const std::vector<double> *fracs, double mean)
        : fracs_(fracs && !fracs->empty() ? fracs : nullptr),
          mean_(mean), cursor_(0)
    {
    }

    double
    next()
    {
        if (!fracs_) {
            return mean_;
        }
        const double v = (*fracs_)[cursor_];
        cursor_ = (cursor_ + 1) % fracs_->size();
        return v;
    }

    /**
     * Skip @p n draws (cursor advance only).  Lets timeGemm consume a
     * whole draw window through precomputed per-value tables while
     * leaving the sampler in exactly the state @p n next() calls would
     * have (the sampler-order invariant).
     */
    void
    advance(uint64_t n)
    {
        if (fracs_) {
            cursor_ = (cursor_ + n) % fracs_->size();
        }
    }

    /** True when drawing from an empirical distribution (stateful). */
    bool empirical() const { return fracs_ != nullptr; }

    /** The empirical distribution (nullptr when mean-backed). */
    const std::vector<double> *dist() const { return fracs_; }

    /** The fallback mean next() returns without a distribution. */
    double mean() const { return mean_; }

    /** Current round-robin position (0 when mean-backed). */
    size_t cursor() const { return cursor_; }

  private:
    const std::vector<double> *fracs_;
    double mean_;
    size_t cursor_;
};

/** Timing/activity result for one GEMM. */
struct GemmTiming
{
    uint64_t cycles = 0;          ///< latency including stalls
    uint64_t stall_scatter = 0;   ///< cycles lost to scatter accumulation
    uint64_t stall_matcher = 0;   ///< cycles lost to output gathering

    double mac_ops = 0.0;         ///< useful MACs executed
    double scatter_ops = 0.0;     ///< accumulator element operations
    double matcher_ops = 0.0;     ///< similarity compare element ops

    /** Tile lengths (p per input sub-tile) observed, for Fig. 13. */
    std::vector<int64_t> tile_lengths;

    /** PE utilization = mac_ops / (cycles * a * b). */
    double utilization(const AccelConfig &cfg) const;
};

/**
 * Time one logical GEMM of @p m x @p k x @p n (already including any
 * `count` replication by the caller).
 *
 * Panics on a config with non-positive array/tile/unit dimensions —
 * callers reaching this layer must hold a validated AccelConfig (see
 * simulateAccelerator).
 *
 * @param psi      sampler for per-(m-tile, k-subtile) input unique
 *                 fractions (1.0 when the input is dense)
 * @param gather_out whether the output stream passes the matcher
 */
GemmTiming timeGemm(const AccelConfig &cfg, int64_t m, int64_t k,
                    int64_t n, FracSampler &psi, bool sic_input,
                    bool gather_out);

/** A GEMM cycle model with timeGemm's signature and contract. */
using GemmTimer = GemmTiming (*)(const AccelConfig &cfg, int64_t m,
                                 int64_t k, int64_t n, FracSampler &psi,
                                 bool sic_input, bool gather_out);

/**
 * SEC schedule check (Sec. V-B): cycles of the top-k sorter
 * (M * ceil(k/a) passes) vs. the image-query attention window it
 * overlaps with; returns the non-overlapped residue (usually 0).
 */
uint64_t secSorterStall(const AccelConfig &cfg, int64_t m_tokens,
                        int64_t text, int64_t head_dim, int64_t heads,
                        int64_t topk);

} // namespace focus

#endif // FOCUS_SIM_SYSTOLIC_H
