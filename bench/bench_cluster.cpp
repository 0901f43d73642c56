/**
 * @file
 * Cluster-scale serving benchmark: replica scaling, routing policies,
 * overload shedding, tensor-parallel splits and continuous batching
 * over one large open-loop arrival trace.
 *
 * One ServingSimulator calibration (and its composition cache) backs
 * every cluster configuration, so the whole sweep costs one
 * functional pass plus the incremental accelerator simulations.  The
 * headline table replays the standard mix across 1 -> 64 replicas
 * with consistent-hash routing; satellite tables isolate routing
 * policy, admission shedding, tensor parallelism and the
 * continuous-batching knee at a fixed fleet size.  Latencies are
 * simulated accelerator seconds at full paper scale, not wall-clock.
 *
 * Usage: bench_cluster [samples] [--threads=N] [--batch=N]
 *                      [--arrival-rate=R] [--replicas=N]
 *                      [--requests=N]
 * Defaults: batch 8, arrival rate 0.25 req/s, 256 requests, sweep up
 * to 64 replicas, seed 42.  Output is deterministic in the seed at
 * every thread count.
 */

#include "bench_util.h"

#include "eval/report.h"
#include "serve/cluster.h"

using namespace focus;

int
main(int argc, char **argv)
{
    const BenchOptions bo = benchOptions(argc, argv, 1);
    benchBanner("Cluster serving: sharded replicas, hash routing, "
                "overload shedding", bo);

    const int max_batch = bo.batch > 0 ? bo.batch : 8;
    // ~7 engines' worth of offered load (mix-weighted batch-of-1
    // service is ~27 s): one replica drowns, the sweep's top end
    // drains the queue — the full overload-to-headroom arc.
    const double rate = bo.arrival_rate > 0.0 ? bo.arrival_rate : 0.25;
    // 1024 requests keep the top of the replica sweep fed: at 64
    // replicas every replica still sees ~16 requests (256 left the
    // 32- and 64-replica rows key-starved, each replica batching 4
    // near-simultaneous arrivals and idling).
    const int num_requests = bo.requests > 0 ? bo.requests : 1024;
    const int max_replicas = bo.replicas > 0 ? bo.replicas : 64;

    QueueConfig queue;
    queue.process = ArrivalProcess::OpenPoisson;
    queue.arrival_rate_rps = rate;
    queue.num_requests = num_requests;
    queue.seed = 42;
    queue.mix = standardServingMix();

    std::printf("mix: %zu classes, %d requests, open-loop %.3f "
                "req/s, max batch %d, hash ring %d vnodes\n",
                queue.mix.size(), num_requests, rate, max_batch,
                HashRing::kVnodes);
    std::printf("(latencies are simulated accelerator seconds on "
                "the %s config)\n\n",
                AccelConfig::focus().name.c_str());

    ServingSimulator base(queue, AccelConfig::focus(),
                          benchEvalOptions(bo));
    BenchRecorder rec("cluster", bo);

    SchedulerConfig sched;
    sched.policy = BatchPolicy::Timeout;
    sched.max_batch = max_batch;
    sched.timeout_s = 120.0;

    // ---- replica scaling ----
    TextTable scale({"Replicas", "Imbal", "Occup", "Req/min",
                     "p50(s)", "p95(s)", "p99(s)", "SLO",
                     "Makespan(s)"});
    for (int replicas = 1; replicas <= max_replicas; replicas *= 2) {
        ClusterConfig cfg;
        cfg.replicas = replicas;
        const ClusterReport rep =
            ClusterSimulator(base, cfg).run(sched);
        const ServingReport &m = rep.merged;
        scale.addRow({std::to_string(replicas),
                      fmtF(rep.load_imbalance, 2),
                      fmtPct(m.mean_occupancy),
                      fmtF(m.throughput_rps * 60.0, 3),
                      fmtF(m.latency.p50, 1), fmtF(m.latency.p95, 1),
                      fmtF(m.latency.p99, 1), fmtPct(m.slo_attainment),
                      fmtF(m.makespan_s, 1)});
        const std::string tag = "r" + std::to_string(replicas);
        rec.metric(tag + "_throughput_rps", m.throughput_rps);
        rec.metric(tag + "_p50_s", m.latency.p50);
        rec.metric(tag + "_p95_s", m.latency.p95);
        rec.metric(tag + "_p99_s", m.latency.p99);
        rec.metric(tag + "_slo", m.slo_attainment);
        rec.metric(tag + "_makespan_s", m.makespan_s);
    }
    std::printf("replica scaling (hash routing, no shedding):\n%s\n",
                scale.render().c_str());

    const int fixed_fleet = std::min(8, max_replicas);

    // ---- routing policy ----
    TextTable routing({"Routing", "Imbal", "p95(s)", "p99(s)", "SLO"});
    for (const RoutingPolicy policy :
         {RoutingPolicy::HashRing, RoutingPolicy::RoundRobin}) {
        ClusterConfig cfg;
        cfg.replicas = fixed_fleet;
        cfg.routing = policy;
        const ClusterReport rep =
            ClusterSimulator(base, cfg).run(sched);
        routing.addRow({routingPolicyName(policy),
                        fmtF(rep.load_imbalance, 2),
                        fmtF(rep.merged.latency.p95, 1),
                        fmtF(rep.merged.latency.p99, 1),
                        fmtPct(rep.merged.slo_attainment)});
        rec.metric(std::string(routingPolicyName(policy)) +
                       "_imbalance",
                   rep.load_imbalance);
    }
    std::printf("routing policy at %d replicas:\n%s\n", fixed_fleet,
                routing.render().c_str());

    // ---- overload shedding ----
    // Half the fleet for the same offered load: sustained overload.
    const int shed_fleet = std::max(1, fixed_fleet / 2);
    TextTable shedding({"Backlog(s)", "Shed", "Rate", "p95(s)",
                        "p99(s)", "SLO"});
    for (const double backlog : {0.0, 480.0, 120.0}) {
        ClusterConfig cfg;
        cfg.replicas = shed_fleet;
        cfg.shed_backlog_s = backlog;
        const ClusterReport rep =
            ClusterSimulator(base, cfg).run(sched);
        shedding.addRow(
            {backlog > 0.0 ? fmtF(backlog, 0) : "off",
             std::to_string(rep.shed), fmtPct(rep.shed_rate),
             fmtF(rep.merged.latency.p95, 1),
             fmtF(rep.merged.latency.p99, 1),
             fmtPct(rep.merged.slo_attainment)});
        const std::string tag =
            "shed" + std::to_string(static_cast<int>(backlog));
        rec.metric(tag + "_rate", rep.shed_rate);
        rec.metric(tag + "_p99_s", rep.merged.latency.p99);
    }
    std::printf("admission shedding at %d replicas (backlog bound "
                "on estimated queued work):\n%s\n",
                shed_fleet, shedding.render().c_str());

    // ---- tensor parallelism ----
    TextTable tensor({"TP", "Makespan(s)", "p95(s)", "SLO",
                      "Interconnect(GB)"});
    for (const int tp : {1, 2, 4}) {
        ClusterConfig cfg;
        cfg.replicas = shed_fleet;
        cfg.tensor_parallel = tp;
        const ClusterReport rep =
            ClusterSimulator(base, cfg).run(sched);
        tensor.addRow(
            {std::to_string(tp), fmtF(rep.merged.makespan_s, 1),
             fmtF(rep.merged.latency.p95, 1),
             fmtPct(rep.merged.slo_attainment),
             fmtF(static_cast<double>(rep.interconnect_bytes) / 1e9,
                  2)});
        const std::string tag = "tp" + std::to_string(tp);
        rec.metric(tag + "_makespan_s", rep.merged.makespan_s);
        rec.metric(tag + "_interconnect_gb",
                   static_cast<double>(rep.interconnect_bytes) / 1e9);
    }
    std::printf("tensor-parallel shards per replica at %d replicas "
                "(ring all-reduce per layer):\n%s\n",
                shed_fleet, tensor.render().c_str());

    // ---- continuous batching ----
    TextTable cont({"Theta", "Makespan(s)", "p95(s)", "SLO"});
    for (const double theta : {0.0, 0.25, 0.5}) {
        ClusterConfig cfg;
        cfg.replicas = shed_fleet;
        cfg.continuous_theta = theta;
        const ClusterReport rep =
            ClusterSimulator(base, cfg).run(sched);
        cont.addRow({theta > 0.0 ? fmtF(theta, 2) : "serial",
                     fmtF(rep.merged.makespan_s, 1),
                     fmtF(rep.merged.latency.p95, 1),
                     fmtPct(rep.merged.slo_attainment)});
        const std::string tag =
            "theta" + std::to_string(static_cast<int>(theta * 100));
        rec.metric(tag + "_makespan_s", rep.merged.makespan_s);
    }
    std::printf("continuous batching at %d replicas (next batch "
                "launches at the SEC shrink knee):\n%s\n",
                shed_fleet, cont.render().c_str());

    // ---- cross-request prefix cache ----
    // Marker-line convention shared with bench_serving: everything
    // above runs without a cache, the budget sweep below sizes one.
    std::printf("prefix-cache: per-replica retained-token caches\n\n");

    // Budget sweep at the fixed fleet, hashed vs round-robin: the
    // same fleet-total bytes go much further when affinity routing
    // keeps each prefix's repeats on one replica's cache.
    const int64_t slab_bytes =
        base.comboSlabSpec(base.classCombo(0), "probe").bytes();
    TextTable cache({"Budget/replica(MB)", "Routing", "HitRate",
                     "Hits", "Evict", "p95(s)", "SLO"});
    for (const int slabs : {4, 16, 64}) {
        for (const RoutingPolicy policy :
             {RoutingPolicy::HashRing, RoutingPolicy::RoundRobin}) {
            ClusterConfig cfg;
            cfg.replicas = fixed_fleet;
            cfg.routing = policy;
            cfg.prefix_cache.budget_bytes = slabs * slab_bytes;
            const ClusterReport rep =
                ClusterSimulator(base, cfg).run(sched);
            cache.addRow(
                {fmtF(static_cast<double>(slabs * slab_bytes) /
                          (1024.0 * 1024.0), 2),
                 routingPolicyName(policy),
                 fmtPct(rep.prefix_cache.hitRate()),
                 std::to_string(rep.prefix_cache.hits),
                 std::to_string(rep.prefix_cache.evictions),
                 fmtF(rep.merged.latency.p95, 1),
                 fmtPct(rep.merged.slo_attainment)});
            const std::string tag = "cache_s" + std::to_string(slabs) +
                "_" + routingPolicyName(policy);
            rec.metric(tag + "_hit_rate", rep.prefix_cache.hitRate());
            rec.metric(tag + "_p95_s", rep.merged.latency.p95);
        }
    }
    std::printf("prefix-cache budget sweep at %d replicas (fp16 "
                "slabs, independent cache per replica):\n%s\n",
                fixed_fleet, cache.render().c_str());
    return 0;
}
