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
 * tile.  Dense (non-SIC) GEMMs are costed over the <= 2x2 distinct
 * (m-rows, n-cols) edge-tile bands: every per-sub-tile quantity is
 * affine in the tile counts.  SIC GEMMs take one psi draw per
 * sub-tile, in the walk's order (m-tile, n-tile, k-sub-tile); the
 * round-robin sampler makes each tile's draws a cyclic slice of the
 * positions the GEMM draws, so p and the sub-tile latency are
 * tabulated once per position and tile geometry and each tile costs
 * O(1) prefix-sum lookups.  Cycle and stall sums are integers and
 * every op-counter addend is an integer-valued double, so both forms
 * are bit-identical to a per-tile walk for any total below 2^53 (far
 * above paper scale).  Each SIC sub-tile's p goes to the caller's
 * Fig. 13 log, in walk order, until the log holds kTileLengthCap
 * entries.  `tests/test_sim_equiv.cc` asserts all of it against the
 * reference walk in `tests/reference/sim_walk.h`.
 */

#ifndef FOCUS_SIM_SYSTOLIC_H
#define FOCUS_SIM_SYSTOLIC_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/accel_config.h"

namespace focus
{

/**
 * Round-robin sampler over a non-empty unique-fraction distribution.
 * Built without one (a null or empty @p fracs), it holds the
 * one-value distribution {mean}.  Not copyable: that one value lives
 * in the sampler itself.
 */
class FracSampler
{
  public:
    FracSampler(const std::vector<double> *fracs, double mean)
        : mean_(mean)
    {
        if (fracs != nullptr && !fracs->empty()) {
            vals_ = fracs->data();
            size_ = fracs->size();
        }
    }

    FracSampler(const FracSampler &) = delete;
    FracSampler &operator=(const FracSampler &) = delete;

    double
    next()
    {
        const double v = vals_[cursor_];
        cursor_ = (cursor_ + 1) % size_;
        return v;
    }

    /** Skip @p n draws: the state @p n next() calls would leave. */
    void advance(uint64_t n) { cursor_ = (cursor_ + n) % size_; }

    /** Distribution length S (1 when built from a mean). */
    size_t size() const { return size_; }

    /** Current round-robin position. */
    size_t cursor() const { return cursor_; }

  private:
    double mean_;
    const double *vals_ = &mean_;
    size_t size_ = 1;
    size_t cursor_ = 0;
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

    /** PE utilization = mac_ops / (cycles * a * b). */
    double utilization(const AccelConfig &cfg) const;
};

/** Entries a Fig. 13 tile-length log keeps (one run's sample). */
constexpr size_t kTileLengthCap = 200000;

/**
 * Time one logical GEMM of @p m x @p k x @p n (already including any
 * `count` replication by the caller).
 *
 * Panics on a config with non-positive array/tile/unit dimensions —
 * callers reaching this layer must hold a validated AccelConfig (see
 * simulateAccelerator).
 *
 * @param psi      sampler for per-(m-tile, k-subtile) input unique
 *                 fractions, drawn only when @p sic_input
 * @param gather_out whether the output stream passes the matcher
 * @param tile_lengths Fig. 13 log: each SIC sub-tile's p is appended
 *                 in walk order while it holds < kTileLengthCap
 */
GemmTiming timeGemm(const AccelConfig &cfg, int64_t m, int64_t k,
                    int64_t n, FracSampler &psi, bool sic_input,
                    bool gather_out, std::vector<int64_t> &tile_lengths);

/** A GEMM cycle model with timeGemm's signature and contract. */
using GemmTimer = GemmTiming (*)(const AccelConfig &cfg, int64_t m,
                                 int64_t k, int64_t n, FracSampler &psi,
                                 bool sic_input, bool gather_out,
                                 std::vector<int64_t> &tile_lengths);

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
