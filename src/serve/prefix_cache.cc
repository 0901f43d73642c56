#include "serve/prefix_cache.h"

#include <algorithm>
#include <cmath>

#include "common/half.h"
#include "common/logging.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace focus
{

namespace
{

/** Admission-sketch width in bits and hash probes per test/set. */
constexpr uint64_t kSketchBits = 4096;
constexpr int kSketchHashes = 2;

/** Budget charge granularity: one cache line per slab allocation. */
constexpr int64_t kSlabAlign = 64;

/** splitmix64 finalizer: derives independent probe hashes. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Conversion scratch: slabs stream through in fixed-size passes. */
constexpr std::size_t kConvertChunk = 4096;

int64_t
chargedBytes(const SlabSpec &spec)
{
    return (spec.bytes() + kSlabAlign - 1) / kSlabAlign * kSlabAlign;
}

/**
 * Relative RMS fp16 round-trip error of the slab's payload: a
 * deterministic synthetic stand-in with realistic magnitudes (the
 * functional model's retained rows live at reduced scale), drawn from
 * the key's seed and converted chunk by chunk.
 */
double
slabRoundTripError(const SlabSpec &spec)
{
    Rng rng(spec.seed);
    int64_t remaining = spec.rows * spec.cols;
    float src[kConvertChunk];
    uint16_t half[kConvertChunk];
    double num = 0.0;
    double den = 0.0;
    while (remaining > 0) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<int64_t>(remaining,
                              static_cast<int64_t>(kConvertChunk)));
        for (std::size_t i = 0; i < n; ++i) {
            src[i] = static_cast<float>(rng.gaussian());
        }
        floatToHalfN(src, half, n);
        for (std::size_t i = 0; i < n; ++i) {
            const double d = static_cast<double>(src[i]) -
                static_cast<double>(halfBitsToFloat(half[i]));
            num += d * d;
            den += static_cast<double>(src[i]) *
                static_cast<double>(src[i]);
        }
        remaining -= static_cast<int64_t>(n);
    }
    return den > 0.0 ? std::sqrt(num / den) : 0.0;
}

} // namespace

uint64_t
prefixKeyHash(const std::string &key)
{
    // FNV-1a 64-bit — stable across platforms, unlike std::hash.
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

PrefixCache::PrefixCache(const PrefixCacheConfig &config)
    : config_(config)
{
    if (enabled()) {
        sketch_.assign(kSketchBits / 64, 0);
    }
}

bool
PrefixCache::sketchTestAndSet(const std::string &key)
{
    const uint64_t base = prefixKeyHash(key);
    bool all_set = true;
    for (int i = 0; i < kSketchHashes; ++i) {
        const uint64_t bit =
            mix64(base + static_cast<uint64_t>(i)) % kSketchBits;
        uint64_t &word = sketch_[bit >> 6];
        const uint64_t mask = 1ull << (bit & 63u);
        if ((word & mask) == 0) {
            all_set = false;
            word |= mask;
        }
    }
    return all_set;
}

void
PrefixCache::evictOne()
{
    if (lru_.empty()) {
        panic("PrefixCache::evictOne: cache is empty");
    }
    const std::string key = lru_.back();
    const auto it = entries_.find(key);
    charged_bytes_ -= chargedBytes(it->second.spec);
    stats_.bytes_resident -= it->second.spec.bytes();
    stats_.full_bytes_resident -= it->second.spec.full_bytes;
    entries_.erase(it);
    lru_.pop_back();
    stats_.evictions += 1;
    if (obs::countersEnabled()) {
        static obs::Counter &c = obs::MetricsRegistry::instance()
            .counter("serve.prefix_cache.evictions");
        c.add(1);
    }
}

bool
PrefixCache::lookup(const std::string &key)
{
    if (!enabled()) {
        return false;
    }
    stats_.lookups += 1;
    if (obs::countersEnabled()) {
        static obs::Counter &c = obs::MetricsRegistry::instance()
            .counter("serve.prefix_cache.lookups");
        c.add(1);
    }
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        stats_.misses += 1;
        if (obs::countersEnabled()) {
            static obs::Counter &c = obs::MetricsRegistry::instance()
                .counter("serve.prefix_cache.misses");
            c.add(1);
        }
        return false;
    }
    stats_.hits += 1;
    if (obs::countersEnabled()) {
        static obs::Counter &c = obs::MetricsRegistry::instance()
            .counter("serve.prefix_cache.hits");
        c.add(1);
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return true;
}

void
PrefixCache::admit(const std::string &key, const SlabSpec &spec)
{
    if (!enabled() || entries_.count(key) > 0) {
        return;
    }
    if (spec.rows <= 0 || spec.cols <= 0) {
        panic("PrefixCache::admit: empty slab for key '%s'",
              key.c_str());
    }
    if (!sketchTestAndSet(key)) {
        // First sighting: the doorkeeper absorbs it.  Only a repeat
        // miss proves the prefix is worth resident bytes.
        stats_.rejected += 1;
        return;
    }
    // Evict LRU-first until the slab fits.  A slab larger than the
    // whole budget drains the cache before it is rejected — the
    // historical order, which the serving tables are pinned to.
    const int64_t charge = chargedBytes(spec);
    while (charged_bytes_ + charge > config_.budget_bytes &&
           !lru_.empty()) {
        evictOne();
    }
    if (charged_bytes_ + charge > config_.budget_bytes) {
        stats_.rejected += 1;
        return;
    }
    charged_bytes_ += charge;
    lru_.push_front(key);
    entries_[key] = Entry{spec, lru_.begin()};
    stats_.admissions += 1;
    stats_.bytes_resident += spec.bytes();
    stats_.bytes_peak =
        std::max(stats_.bytes_peak, stats_.bytes_resident);
    stats_.full_bytes_resident += spec.full_bytes;
    stats_.err_sum += slabRoundTripError(spec);
    stats_.err_slabs += 1;
    if (obs::countersEnabled()) {
        static obs::Counter &c = obs::MetricsRegistry::instance()
            .counter("serve.prefix_cache.admissions");
        c.add(1);
    }
}

} // namespace focus
