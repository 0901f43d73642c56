/**
 * @file
 * Cross-request retained-token prefix cache.
 *
 * Requests that share a prefix identity (same request class, same
 * `ServeRequest::prefix_id` — see serve/request_queue.h) re-derive the
 * same concentrated visual token set: the SEC schedule is
 * deterministic per (model, dataset, method), so the retained rows of
 * one request's prefix are byte-for-byte the retained rows of the
 * next.  This tier caches that set across requests.  A hit skips the
 * entire visual portion of the forward pass — the evaluator swaps in
 * the prefix-cached trace (sim/trace.h applyPrefixCache) whose
 * projection/FFN GEMMs cover only the text rows while the cached rows
 * serve as attention K/V context.
 *
 * Design:
 *
 *  - **Admission sketch.**  A tiny Bloom filter remembers keys that
 *    have missed before; a slab is admitted only on its *second* miss.
 *    One-hit wonders (cold prefixes that never repeat) therefore
 *    cannot evict hot entries — the TinyLFU-style doorkeeper idiom.
 *  - **LRU within a byte budget.**  Eviction is least-recently-used,
 *    but the budget is bytes, not an entry count: slabs from
 *    different (model, dataset, method) combos have different
 *    footprints.  Each resident slab is charged its fp16 payload
 *    rounded up to a 64-byte cache line, the granularity a real slab
 *    allocator hands out.
 *  - **fp16 slabs.**  A hit swaps in the prefix-cached trace, so no
 *    payload is ever read back and none is kept.  Admission instead
 *    measures the fp16 round-trip error of the slab's
 *    seed-reproducible stand-in payload (common/half.h), so serving
 *    reports can bound the numerical cost of compression.
 *
 * A zero byte budget (the default) disables the cache: every lookup
 * is a non-counting miss, which keeps serving output bit-identical to
 * a replay without a cache.
 *
 * Not thread-safe: the serving layer drives it from the serial replay
 * pre-pass (serve/serving_sim.cc), which is also what keeps hit/miss
 * streams — and the obs work counters — thread-count invariant.
 */

#ifndef FOCUS_SERVE_PREFIX_CACHE_H
#define FOCUS_SERVE_PREFIX_CACHE_H

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

namespace focus
{

/**
 * Stable 64-bit hash of a cache key (FNV-1a; never std::hash, whose
 * value is implementation-defined).  The admission sketch probes with
 * it, and the serving layer derives each slab's payload seed from it
 * so a key's payload is reproducible across runs and replicas.
 */
uint64_t prefixKeyHash(const std::string &key);

/** Cache sizing. */
struct PrefixCacheConfig
{
    /**
     * Byte budget for resident slabs; 0 (the default) disables the
     * cache entirely — a budget-0 run is bit-identical to a replay
     * without a cache.
     */
    int64_t budget_bytes = 0;

    /** True when the budget enables caching. */
    bool enabled() const { return budget_bytes > 0; }
};

/**
 * Geometry of one retained-token slab: `rows * cols` fp16 values, a
 * reduced-scale mirror of the full-scale K/V set at a fixed ratio.
 * `seed` makes the synthetic payload deterministic per key.
 */
struct SlabSpec
{
    int64_t rows = 0;
    int64_t cols = 0;
    uint64_t seed = 0;

    /** Payload bytes: rows * cols 16-bit values. */
    int64_t bytes() const { return rows * cols * 2; }
};

/** Aggregate cache activity (work counters — thread invariant). */
struct PrefixCacheStats
{
    int64_t lookups = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    /** Slabs admitted (second-miss admissions). */
    int64_t admissions = 0;
    /** Slabs evicted to make room. */
    int64_t evictions = 0;
    /** Misses the sketch absorbed, plus slabs too large to ever fit. */
    int64_t rejected = 0;
    /** Payload bytes of the resident slabs / high-water mark. */
    int64_t bytes_resident = 0;
    int64_t bytes_peak = 0;
    /** Sum over admitted slabs of relative RMS round-trip error. */
    double err_sum = 0.0;
    int64_t err_slabs = 0;

    double hitRate() const
    {
        return lookups > 0
            ? static_cast<double>(hits) / static_cast<double>(lookups)
            : 0.0;
    }

    /** Mean per-slab relative RMS fp16 round-trip error. */
    double meanRoundTripError() const
    {
        return err_slabs > 0 ? err_sum / static_cast<double>(err_slabs)
                             : 0.0;
    }
};

/**
 * The cache proper.  Usage protocol per request, in arrival order:
 *
 *     if (cache.lookup(key)) { ...hit: use the prefix-cached trace... }
 *     else                   { cache.admit(key, spec); }
 *
 * lookup() never mutates resident slabs beyond the LRU touch; admit()
 * is a no-op for keys already resident (a racing same-batch admit).
 */
class PrefixCache
{
  public:
    explicit PrefixCache(const PrefixCacheConfig &config);

    PrefixCache(const PrefixCache &) = delete;
    PrefixCache &operator=(const PrefixCache &) = delete;

    /**
     * True when @p key holds a resident slab (counted as a hit and
     * moved to the LRU front).  Always false — and uncounted — when
     * the cache is disabled.
     */
    bool lookup(const std::string &key);

    /**
     * Record a miss for @p key.  First miss only marks the admission
     * sketch; the second admits the slab, evicting LRU entries until
     * its 64-byte-rounded size fits the budget.  A slab larger than
     * the whole budget is rejected (after evicting everything).
     * No-op when disabled or when @p key is resident.
     */
    void admit(const std::string &key, const SlabSpec &spec);

    /** True when the config's budget enables this instance. */
    bool enabled() const { return config_.enabled(); }

    PrefixCacheStats stats() const { return stats_; }

  private:
    struct Entry
    {
        SlabSpec spec;
        std::list<std::string>::iterator lru_it;
    };

    /** Bloom test-and-set: true when every probed bit was already set. */
    bool sketchTestAndSet(const std::string &key);

    /** Evict the LRU entry (panics when empty). */
    void evictOne();

    PrefixCacheConfig config_;
    PrefixCacheStats stats_;
    /** Budget charge of the resident slabs (64-byte rounded). */
    int64_t charged_bytes_ = 0;
    std::vector<uint64_t> sketch_;
    /** MRU at front. */
    std::list<std::string> lru_;
    std::unordered_map<std::string, Entry> entries_;
};

} // namespace focus

#endif // FOCUS_SERVE_PREFIX_CACHE_H
