#include "serve/cluster.h"

#include <algorithm>
#include <tuple>

#include "common/logging.h"
#include "obs/trace_span.h"
#include "runtime/thread_pool.h"

namespace focus
{

namespace
{

/** splitmix64 finalizer: deterministic stateless bit mixing. */
uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

/** Ring position of (replica, vnode) — a pure function of the pair. */
uint64_t
vnodePosition(int replica, int vnode)
{
    const uint64_t r = static_cast<uint64_t>(replica) *
        0x9e3779b97f4a7c15ull + 1;
    const uint64_t v = static_cast<uint64_t>(vnode) *
        0xd6e8feb86659fd93ull + 0x2545f4914f6cdd1dull;
    return mix64(mix64(r) ^ v);
}

} // namespace

// ---------------------------------------------------------------
// HashRing
// ---------------------------------------------------------------

HashRing::HashRing(int replicas)
{
    if (replicas <= 0) {
        fatal("HashRing: at least one replica required (got %d)",
              replicas);
    }
    ring_.reserve(static_cast<size_t>(replicas) *
                  static_cast<size_t>(kVnodes));
    for (int id = 0; id < replicas; ++id) {
        for (int v = 0; v < kVnodes; ++v) {
            ring_.emplace_back(vnodePosition(id, v), id);
        }
    }
    // A position collision (already astronomically unlikely)
    // resolves by the lower id.
    std::sort(ring_.begin(), ring_.end());
}

int
HashRing::route(uint64_t key_hash) const
{
    // First vnode at or clockwise after the hash, wrapping to the
    // ring start past the largest position.
    const auto it = std::lower_bound(
        ring_.begin(), ring_.end(),
        std::make_pair(key_hash, 0),
        [](const std::pair<uint64_t, int> &a,
           const std::pair<uint64_t, int> &b) {
            return a.first < b.first;
        });
    return it == ring_.end() ? ring_.front().second : it->second;
}

int
HashRing::route(const std::string &key) const
{
    return route(hashKey(key));
}

uint64_t
HashRing::hashKey(const std::string &key)
{
    // FNV-1a 64-bit, then a splitmix64 finalizer: bare FNV-1a has no
    // final avalanche, so keys differing only in a short suffix
    // ("cls#1", "cls#2", ...) hash into one narrow band of the ring
    // and pile onto the same few vnodes.
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return mix64(h);
}

// ---------------------------------------------------------------
// ClusterSimulator
// ---------------------------------------------------------------

const char *
routingPolicyName(RoutingPolicy p)
{
    switch (p) {
      case RoutingPolicy::HashRing:
        return "hash-ring";
      case RoutingPolicy::RoundRobin:
        return "round-robin";
    }
    return "?";
}

ClusterSimulator::ClusterSimulator(ServingSimulator &base,
                                   const ClusterConfig &cluster)
    : base_(base), cfg_(cluster)
{
    if (cfg_.replicas <= 0) {
        fatal("ClusterSimulator: at least one replica required "
              "(got %d)", cfg_.replicas);
    }
    if (cfg_.tensor_parallel <= 0) {
        fatal("ClusterSimulator: invalid split factor %d (want a "
              "positive tensor-parallel degree)",
              cfg_.tensor_parallel);
    }
    // Negated comparisons so a NaN fails them too.
    if (!(cfg_.shed_backlog_s >= 0.0)) {
        fatal("ClusterSimulator: shed_backlog_s must be a "
              "non-negative backlog bound (got %g s)",
              cfg_.shed_backlog_s);
    }
    if (!(cfg_.continuous_theta < 1.0)) {
        fatal("ClusterSimulator: continuous_theta (the continuous-"
              "batching knee) must be below 1 (got %g)",
              cfg_.continuous_theta);
    }
}

std::string
ClusterSimulator::routingKey(const ServeRequest &req,
                             const RequestClass &cls)
{
    // One key definition serves both tiers: the ring routes on it and
    // every replica's prefix cache stores under it, so hash affinity
    // concentrates a prefix's repeats onto the replica that holds its
    // slab by construction.
    return prefixKey(req, cls);
}

ClusterReport
ClusterSimulator::run(const SchedulerConfig &sched, ThreadPool *pool)
{
    const QueueConfig &queue = base_.queueConfig();
    if (queue.process != ArrivalProcess::OpenPoisson) {
        fatal("ClusterSimulator: cluster replay models the open-loop "
              "overload regime; closed-loop populations self-limit "
              "and stay a single-box (ServingSimulator) question");
    }
    // Calibrate on this pool (the shed estimate below would otherwise
    // calibrate on the global one); each replica's replay builds the
    // prefix-cache hit traces on demand.
    base_.calibrate(pool);
    const BatchScheduler scheduler(sched);
    const std::vector<ServeRequest> stream =
        RequestQueue(queue).generate();
    const size_t n = stream.size();
    const int R = cfg_.replicas;

    // ---- route ----
    std::vector<int> replica_of(n);
    {
        obs::TraceSpan route_span("cluster.route");
        if (cfg_.routing == RoutingPolicy::RoundRobin) {
            for (size_t i = 0; i < n; ++i) {
                replica_of[i] = static_cast<int>(
                    stream[i].id % static_cast<int64_t>(R));
            }
        } else {
            const HashRing ring(R);
            for (size_t i = 0; i < n; ++i) {
                const RequestClass &cls =
                    queue.mix[static_cast<size_t>(stream[i].class_id)];
                replica_of[i] =
                    ring.route(routingKey(stream[i], cls));
            }
        }
    }

    // ---- admission / shedding ----
    // Leaky-bucket backlog per replica: drains in real time, fills
    // by the admitted request's estimated (sharded) solo service.
    std::vector<double> est;
    if (cfg_.shed_backlog_s > 0.0) {
        est.reserve(queue.mix.size());
        for (size_t cls = 0; cls < queue.mix.size(); ++cls) {
            const size_t code = ServingSimulator::comboCode(
                base_.classCombo(static_cast<int>(cls)), false);
            est.push_back(
                base_.costComposition({code}, cfg_.tensor_parallel)
                    .seconds());
        }
    }
    std::vector<std::vector<size_t>> admitted(
        static_cast<size_t>(R));
    std::vector<int> shed_count(static_cast<size_t>(R), 0);
    std::vector<char> is_shed(n, 0);
    std::vector<double> backlog(static_cast<size_t>(R), 0.0);
    std::vector<double> last_seen(static_cast<size_t>(R), 0.0);
    for (size_t i = 0; i < n; ++i) {
        const size_t r = static_cast<size_t>(replica_of[i]);
        if (cfg_.shed_backlog_s > 0.0) {
            const double t = stream[i].arrival_s;
            backlog[r] =
                std::max(0.0, backlog[r] - (t - last_seen[r]));
            last_seen[r] = t;
            if (backlog[r] > cfg_.shed_backlog_s) {
                is_shed[i] = 1;
                shed_count[r] += 1;
                continue;
            }
            backlog[r] +=
                est[static_cast<size_t>(stream[i].class_id)];
        }
        admitted[r].push_back(i);
    }

    // ---- per-replica replay ----
    std::vector<RequestOutcome> outcomes(n);
    std::vector<std::vector<BatchRecord>> rep_batches(
        static_cast<size_t>(R));
    ClusterReport rep;
    rep.replicas.resize(static_cast<size_t>(R));
    for (int r = 0; r < R; ++r) {
        const size_t ri = static_cast<size_t>(r);
        ReplicaStats &rs = rep.replicas[ri];
        rs.replica = r;
        rs.routed = static_cast<int>(admitted[ri].size()) +
            shed_count[ri];
        rs.shed = shed_count[ri];

        std::vector<ServeRequest> sub;
        sub.reserve(admitted[ri].size());
        for (const size_t i : admitted[ri]) {
            sub.push_back(stream[i]);
        }
        // Routing and shedding are deterministic functions of the
        // stream (hash ring / round robin + leaky bucket), so the
        // per-replica split is a work total, not a sched artifact.
        if (obs::countersEnabled()) {
            obs::MetricsRegistry &reg =
                obs::MetricsRegistry::instance();
            const std::string base =
                "cluster.replica." + std::to_string(r);
            reg.counter(base + ".routed")
                .add(static_cast<uint64_t>(rs.routed));
            reg.counter(base + ".shed")
                .add(static_cast<uint64_t>(rs.shed));
        }
        obs::TraceSpan replay_span("cluster.replica.replay");
        // One independent cache per replica: affinity (or its
        // absence) shows up directly in each replica's hit rate.
        PrefixCache cache(cfg_.prefix_cache);
        std::vector<RequestOutcome> sub_out;
        std::vector<BatchRecord> sub_batches;
        if (!sub.empty()) {
            rs.interconnect_bytes = base_.replay(
                scheduler, sub, pool, sub_out, sub_batches, &cache,
                cfg_.tensor_parallel, cfg_.continuous_theta);
        }
        const PrefixCacheStats cs = cache.stats();
        rs.prefix_hits = cs.hits;
        rs.prefix_misses = cs.misses;
        rep.prefix_cache.lookups += cs.lookups;
        rep.prefix_cache.hits += cs.hits;
        rep.prefix_cache.misses += cs.misses;
        rep.prefix_cache.admissions += cs.admissions;
        rep.prefix_cache.evictions += cs.evictions;
        rep.prefix_cache.rejected += cs.rejected;
        rep.prefix_cache.bytes_resident += cs.bytes_resident;
        rep.prefix_cache.bytes_peak += cs.bytes_peak;
        rep.prefix_cache.err_sum += cs.err_sum;
        rep.prefix_cache.err_slabs += cs.err_slabs;
        for (BatchRecord &b : sub_batches) {
            b.replica = r;
            rs.makespan_s = std::max(rs.makespan_s,
                                     b.start_s + b.service_s);
        }
        rs.batches = static_cast<int>(sub_batches.size());
        for (size_t j = 0; j < admitted[ri].size(); ++j) {
            outcomes[admitted[ri][j]] = sub_out[j];
        }
        rep_batches[ri] = std::move(sub_batches);
    }

    // Shed requests never execute: they carry their arrival time and
    // count as SLO misses in the merged report.
    for (size_t i = 0; i < n; ++i) {
        if (!is_shed[i]) {
            continue;
        }
        RequestOutcome &o = outcomes[i];
        o.id = stream[i].id;
        o.class_id = stream[i].class_id;
        o.batch_id = -1;
        o.batch_size = 0;
        o.arrival_s = stream[i].arrival_s;
        o.start_s = stream[i].arrival_s;
        o.finish_s = stream[i].arrival_s;
        o.shed = true;
    }

    // ---- merge batches into one fleet-order timeline ----
    std::vector<std::tuple<double, double, int64_t, int, size_t>>
        order;
    for (int r = 0; r < R; ++r) {
        const size_t ri = static_cast<size_t>(r);
        for (size_t b = 0; b < rep_batches[ri].size(); ++b) {
            const BatchRecord &rec = rep_batches[ri][b];
            order.emplace_back(rec.start_s, rec.ready_s,
                               rec.request_ids.front(), r, b);
        }
    }
    std::sort(order.begin(), order.end());
    std::vector<std::vector<int>> remap(static_cast<size_t>(R));
    for (int r = 0; r < R; ++r) {
        remap[static_cast<size_t>(r)].resize(
            rep_batches[static_cast<size_t>(r)].size(), -1);
    }
    std::vector<BatchRecord> merged;
    merged.reserve(order.size());
    for (const auto &o : order) {
        const size_t r = static_cast<size_t>(std::get<3>(o));
        const size_t b = std::get<4>(o);
        remap[r][b] = static_cast<int>(merged.size());
        merged.push_back(std::move(rep_batches[r][b]));
    }
    for (size_t i = 0; i < n; ++i) {
        if (is_shed[i] || outcomes[i].batch_id < 0) {
            continue;
        }
        outcomes[i].batch_id =
            remap[static_cast<size_t>(replica_of[i])]
                 [static_cast<size_t>(outcomes[i].batch_id)];
    }

    rep.merged = base_.assemble(sched, stream, std::move(outcomes),
                                std::move(merged));
    // Mirror the fleet aggregate into the merged report so a cluster
    // of one replica reproduces ServingSimulator::run field for
    // field (assemble itself leaves the field zeroed).
    rep.merged.prefix_cache = rep.prefix_cache;

    // ---- fleet stats ----
    int max_routed = 0;
    for (const ReplicaStats &rs : rep.replicas) {
        rep.shed += rs.shed;
        rep.interconnect_bytes += rs.interconnect_bytes;
        max_routed = std::max(max_routed, rs.routed);
    }
    rep.admitted = static_cast<int>(n) - rep.shed;
    rep.shed_rate = n > 0
        ? static_cast<double>(rep.shed) / static_cast<double>(n)
        : 0.0;
    const double mean_routed =
        static_cast<double>(n) / static_cast<double>(R);
    rep.load_imbalance = mean_routed > 0.0
        ? static_cast<double>(max_routed) / mean_routed : 0.0;
    return rep;
}

} // namespace focus
