/**
 * @file
 * Synthetic request streams for the serving layer.
 *
 * A request queue turns a weighted mix of request classes — each a
 * (model, dataset, method) triple with a latency SLO — into a
 * deterministic stream of timed requests.  Two arrival processes are
 * modeled:
 *
 *  - OpenPoisson: an open loop where requests arrive at a fixed mean
 *    rate with exponential inter-arrival times, independent of how
 *    fast the accelerator drains them (the overload-capable regime).
 *  - ClosedLoop: a fixed client population; each client issues its
 *    next request an exponential think time after its previous one
 *    completes, so the offered load self-limits to the service rate.
 *
 * All randomness flows from common/rng seeded by QueueConfig::seed,
 * so a stream is exactly reproducible: same seed, same classes, same
 * arrival times, at every thread count.
 */

#ifndef FOCUS_SERVE_REQUEST_QUEUE_H
#define FOCUS_SERVE_REQUEST_QUEUE_H

#include <cstdint>
#include <string>
#include <vector>

#include "vlm/method.h"

namespace focus
{

/** How requests enter the system. */
enum class ArrivalProcess
{
    OpenPoisson, ///< open loop, exponential inter-arrival at a rate
    ClosedLoop,  ///< fixed clients, exponential think after completion
};

/** One request class of a serving mix. */
struct RequestClass
{
    std::string model;
    std::string dataset;
    MethodConfig method;

    /** Relative probability of drawing this class. */
    double weight = 1.0;
    /** Per-request latency SLO (simulated seconds). */
    double slo_latency_s = 120.0;
    /**
     * Distinct prefix identities (shared videos / system prompts)
     * this class draws from; each request carries one.  The cluster
     * router keys its consistent-hash ring on class label + prefix so
     * same-prefix requests land on the same replica, and the prefix
     * cache (serve/prefix_cache.h) keys its slabs the same way —
     * routing affinity is what concentrates repeats into hits.
     */
    int prefix_cardinality = 64;
    /**
     * Zipf exponent of the prefix popularity distribution: identity
     * rank r (0-based) is drawn with probability proportional to
     * (r+1)^-prefix_zipf.  0 (the default) keeps the historical
     * uniform draw bit-identically — real prefix traffic is heavily
     * skewed (a few hot videos dominate), which is what makes a
     * bounded-budget cache effective at all.
     */
    double prefix_zipf = 0.0;

    /** "model/dataset/method" display label. */
    std::string label() const;
};

/** Arrival-process and mix configuration for one stream. */
struct QueueConfig
{
    ArrivalProcess process = ArrivalProcess::OpenPoisson;

    /** OpenPoisson: mean arrival rate in requests per second. */
    double arrival_rate_rps = 0.05;

    /** ClosedLoop: concurrent client population. */
    int clients = 4;
    /** ClosedLoop: mean think time between a finish and the next issue. */
    double think_mean_s = 10.0;

    int num_requests = 32;
    uint64_t seed = 42;

    std::vector<RequestClass> mix;
};

/** One request instance of the stream. */
struct ServeRequest
{
    int64_t id = 0;      ///< position in the stream (0-based)
    int class_id = 0;    ///< index into QueueConfig::mix
    /** Prefix identity in [0, class prefix_cardinality). */
    int64_t prefix_id = 0;
    double arrival_s = 0.0; ///< absolute arrival time (OpenPoisson)
    double think_s = 0.0;   ///< think time before issue (ClosedLoop)
    double slo_latency_s = 0.0;
};

/**
 * Deterministic request-stream generator.  Construction validates
 * the configuration (fatal on an empty mix, non-positive rate, ...);
 * generate() is a pure function of the config.
 */
class RequestQueue
{
  public:
    explicit RequestQueue(const QueueConfig &cfg);

    const QueueConfig &config() const { return cfg_; }

    /**
     * The full request stream.  OpenPoisson streams are sorted by
     * arrival time (ids follow arrival order); ClosedLoop streams
     * are in issue order per client with round-robin client
     * assignment (request i belongs to client i % clients) and carry
     * think times instead of absolute arrivals — the serving
     * simulator derives arrivals from completions.
     */
    std::vector<ServeRequest> generate() const;

  private:
    QueueConfig cfg_;
};

/**
 * Canonical cache/affinity key of one request: class label + "#" +
 * prefix identity.  The cluster router hashes it onto the replica
 * ring and every replica's prefix cache keys its slabs with it, so
 * one definition keeps the two tiers aligned by construction.
 */
std::string prefixKey(const ServeRequest &req, const RequestClass &cls);

/**
 * Mixed-profile roster used by bench_serving and the serving demo:
 * interactive Focus traffic on the paper's video workloads, a dense
 * (unconcentrated) minority class, and a long-video class
 * (MLVU-Long, 2x the paper's frame count) that stresses the heavy
 * token-count regime.
 */
std::vector<RequestClass> standardServingMix();

} // namespace focus

#endif // FOCUS_SERVE_REQUEST_QUEUE_H
