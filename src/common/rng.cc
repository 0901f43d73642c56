#include "common/rng.h"

#include <cmath>

namespace focus
{

namespace
{

/** splitmix64 step, used for seeding. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
    : cached_gauss_(0.0), has_cached_gauss_(false), lineage_(seed)
{
    uint64_t sm = seed;
    for (auto &s : s_) {
        s = splitmix64(sm);
    }
    // Guard against the all-zero state (astronomically unlikely but
    // fatal for xoshiro).
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
        s_[0] = 0x1ull;
    }
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

void
Rng::discard(uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i) {
        next();
    }
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = (0 - n) % n;
    for (;;) {
        const uint64_t r = next();
        if (r >= threshold) {
            return r % n;
        }
    }
}

double
Rng::gaussian()
{
    if (has_cached_gauss_) {
        has_cached_gauss_ = false;
        return cached_gauss_;
    }
    double u1 = uniform();
    double u2 = uniform();
    // Avoid log(0).
    if (u1 < 1e-300) {
        u1 = 1e-300;
    }
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_gauss_ = r * std::sin(theta);
    has_cached_gauss_ = true;
    return r * std::cos(theta);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

Rng
Rng::fork(uint64_t salt)
{
    uint64_t mix = lineage_;
    // Two splitmix rounds keyed by the salt give distinct lineages for
    // distinct salts with overwhelming probability.
    mix ^= splitmix64(salt);
    mix ^= splitmix64(salt);
    return Rng(mix ^ (salt * 0x2545f4914f6cdd1dull));
}

} // namespace focus
