/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components (workload synthesis, weight initialization,
 * noise injection) draw from this generator so experiments are exactly
 * reproducible from a seed.  The implementation is xoshiro256++, which
 * is fast, high-quality, and has a well-defined jump function for
 * deriving independent streams.
 */

#ifndef FOCUS_COMMON_RNG_H
#define FOCUS_COMMON_RNG_H

#include <cstdint>

namespace focus
{

/**
 * xoshiro256++ generator with convenience distributions.
 *
 * Not thread-safe; create one instance per logical stream.
 */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of a single 64-bit value. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit output. */
    uint64_t next();

    /**
     * Advance the stream by @p n raw outputs, as n next() calls do.
     * A cached Box-Muller value is left as it is.
     */
    void discard(uint64_t n);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    uint64_t uniformInt(uint64_t n);

    /**
     * Standard normal via Box-Muller (cached pair).  Each pair costs
     * exactly two raw outputs (there is no rejection step), so 2k
     * gaussian() calls from an empty cache advance the stream by 2k,
     * and discard(2k) reaches the state they leave.
     */
    double gaussian();

    /** Normal with given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Bernoulli trial with probability p of returning true. */
    bool bernoulli(double p);

    /**
     * Derive an independent child stream.
     *
     * Mixes the parent's seed lineage with @p salt so sub-generators
     * for different purposes do not overlap.
     */
    Rng fork(uint64_t salt);

  private:
    uint64_t s_[4];
    double cached_gauss_;
    bool has_cached_gauss_;
    uint64_t lineage_;
};

} // namespace focus

#endif // FOCUS_COMMON_RNG_H
