/**
 * @file
 * Cluster-scale serving: N simulated accelerator replicas over one
 * ServingSimulator calibration.
 *
 * The cluster layer turns the single-box serving simulator into a
 * fleet model:
 *
 *  - *Routing*: requests land on replicas via consistent hashing on a
 *    virtual-node ring keyed by request class + prefix identity
 *    (HashRing), so same-prefix traffic keeps replica affinity and
 *    adding a replica moves only ~K/N keys.  A round-robin policy is
 *    kept as the balance reference.
 *  - *Overload shedding*: a per-replica leaky-bucket backlog estimate
 *    (drains in real time, fills by the admitted request's estimated
 *    solo service) rejects arrivals once the backlog exceeds
 *    shed_backlog_s — the open-loop overload-regime admission policy.
 *  - *Replay*: each replica's admitted sub-stream goes through
 *    ServingSimulator::replay, the single box's own replay,
 *    with the replica's tensor-parallel degree (sim/trace.h
 *    splitTensorParallel — per-shard cycle/DRAM accounting plus the
 *    ring-collective interconnect term in sim/accel_model.cc; batch
 *    service time is the slowest shard's) and continuous-batching
 *    knee.  At continuous_theta <= 0 the replay plans serial batches;
 *    above it the replay's pick-time loop (the one the single box's
 *    closed loop runs) launches the next batch where SEC has shrunk
 *    the active set, and that batch pays only the residual tail.
 *    The cluster itself only routes, sheds and merges.
 *
 * Bit-identity contract: a cluster of one replica with default knobs
 * (tp = 1, no shedding, serial batching) reproduces
 * ServingSimulator::run bit for bit by construction — both run the
 * same replay on the same batch-cost memo and assemble the report
 * with the same function (tests/test_cluster.cc).
 */

#ifndef FOCUS_SERVE_CLUSTER_H
#define FOCUS_SERVE_CLUSTER_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/serving_sim.h"

namespace focus
{

/**
 * Consistent-hash ring with virtual nodes.
 *
 * Each replica owns kVnodes pseudo-random positions on a 64-bit ring
 * (a splitmix64-style mix of the replica id and vnode index — no RNG
 * state, so a replica's positions do not depend on the ring's size).
 * A key routes to the owner of the first vnode at or clockwise after
 * its hash.
 */
class HashRing
{
  public:
    /** Ring over replica ids 0..replicas-1 (fatal when empty). */
    explicit HashRing(int replicas);

    int replicas() const { return static_cast<int>(ring_.size()) / kVnodes; }

    /** Owning replica id of a 64-bit key hash. */
    int route(uint64_t key_hash) const;
    /** Owning replica id of a string key (FNV-1a hashed). */
    int route(const std::string &key) const;

    /**
     * FNV-1a 64-bit hash of @p key with a splitmix64 finalizer (the
     * avalanche keeps near-identical keys from clustering on the
     * ring).
     */
    static uint64_t hashKey(const std::string &key);

    /** Ring positions per member replica. */
    static constexpr int kVnodes = 64;

  private:
    /** (ring position, replica id), sorted ascending. */
    std::vector<std::pair<uint64_t, int>> ring_;
};

/** How the cluster assigns requests to replicas. */
enum class RoutingPolicy
{
    HashRing,   ///< consistent hash on class + prefix identity
    RoundRobin, ///< stream position modulo replica count
};

const char *routingPolicyName(RoutingPolicy p);

/** Cluster topology and policy knobs. */
struct ClusterConfig
{
    int replicas = 1;
    RoutingPolicy routing = RoutingPolicy::HashRing;

    /** Tensor-parallel shards per replica (1 = whole engine). */
    int tensor_parallel = 1;

    /**
     * Admission bound: shed an arrival when its replica's estimated
     * backlog exceeds this many seconds of work (0 admits
     * everything; fatal when negative or NaN).
     */
    double shed_backlog_s = 0.0;

    /**
     * Continuous-batching knee: the next batch launches at the layer
     * where the active set has shrunk to theta * its layer-0 rows
     * (<= 0 keeps serial batch boundaries; fatal unless below 1).
     */
    double continuous_theta = 0.0;

    /**
     * Per-replica prefix-cache sizing (serve/prefix_cache.h); the
     * default zero budget disables caching.  Each replica owns an
     * independent cache, which is exactly what makes routing policy
     * matter: hash-affinity routing concentrates a prefix's repeats
     * onto one replica's cache, while round-robin scatters them
     * across all caches and forfeits most hits.
     */
    PrefixCacheConfig prefix_cache;
};

/** Per-replica execution summary. */
struct ReplicaStats
{
    int replica = 0;
    int routed = 0;  ///< requests the router sent here
    int shed = 0;    ///< rejected at admission
    int batches = 0;
    double makespan_s = 0.0; ///< last finish on this replica
    uint64_t interconnect_bytes = 0;
    /** This replica's prefix-cache activity (zero when disabled). */
    int64_t prefix_hits = 0;
    int64_t prefix_misses = 0;
};

/** Cluster replay result. */
struct ClusterReport
{
    /** Fleet-level report over the full stream (shed-aware). */
    ServingReport merged;
    std::vector<ReplicaStats> replicas;

    int admitted = 0;
    int shed = 0;
    double shed_rate = 0.0;
    /** Max over replicas of routed count / mean routed count. */
    double load_imbalance = 0.0;
    uint64_t interconnect_bytes = 0;
    /**
     * Fleet-aggregate prefix-cache activity (summed over the
     * replicas' independent caches; also mirrored into
     * merged.prefix_cache so a cluster of one replica reproduces the
     * single-box report field for field).
     */
    PrefixCacheStats prefix_cache;
};

/**
 * Fleet replay over a shared ServingSimulator.
 *
 * Non-owning: the base simulator provides calibration, the batch-cost
 * memo, the replay and the report assembly, so sweeping replica
 * counts, splits and policies reuses all functional and simulation
 * work.  Open-loop streams only — overload is an
 * open-loop phenomenon; closed-loop populations self-limit and stay
 * a single-box question (fatal otherwise).
 */
class ClusterSimulator
{
  public:
    ClusterSimulator(ServingSimulator &base,
                     const ClusterConfig &cluster);

    ClusterReport run(const SchedulerConfig &sched,
                      ThreadPool *pool = nullptr);

    /** Ring key of a request: class label + "#" + prefix id. */
    static std::string routingKey(const ServeRequest &req,
                                  const RequestClass &cls);

  private:
    ServingSimulator &base_;
    ClusterConfig cfg_;
};

} // namespace focus

#endif // FOCUS_SERVE_CLUSTER_H
