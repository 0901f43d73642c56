/**
 * @file
 * Serving-layer benchmark: throughput / latency / batch occupancy of
 * the scheduler policies over a mixed-profile request stream.
 *
 * Replays the standard serving mix (Focus on VideoMME/MVBench, a
 * dense minority class, and the long-video MLVU-Long class) through
 * the ServingSimulator under every batching policy, open loop, plus
 * a closed-loop client population, all from one functional
 * calibration.  Latencies are simulated accelerator seconds at full
 * paper scale (a ~6k-token prefill on the 32x32 array takes tens of
 * seconds), not wall-clock.
 *
 * Usage: bench_serving [samples] [--threads=N] [--batch=N]
 *                      [--arrival-rate=R]
 * Defaults: batch 8, arrival rate 0.025 req/s, 24 requests, seed 42.
 * Output is deterministic in the seed at every thread count.
 */

#include "bench_util.h"

#include "eval/report.h"
#include "serve/cluster.h"
#include "serve/serving_sim.h"

using namespace focus;

namespace
{

void
addPolicyRow(TextTable &table, const char *process,
             const ServingReport &rep, int max_batch,
             BenchRecorder &rec)
{
    table.addRow({rep.policy, process, std::to_string(max_batch),
                  std::to_string(rep.batches.size()),
                  fmtPct(rep.mean_occupancy),
                  fmtF(rep.throughput_rps * 60.0, 3),
                  fmtF(rep.latency.p50, 1), fmtF(rep.latency.p95, 1),
                  fmtF(rep.latency.p99, 1),
                  fmtPct(rep.slo_attainment)});
    const std::string tag =
        std::string(process) + "_" + rep.policy;
    rec.metric(tag + "_throughput_rps", rep.throughput_rps);
    rec.metric(tag + "_p95_s", rep.latency.p95);
    rec.metric(tag + "_slo", rep.slo_attainment);
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions bo = benchOptions(argc, argv, 2);
    benchBanner("Serving: scheduler policies over a mixed request "
                "stream", bo);

    // Default rate targets ~70% utilization of the Focus config on
    // this mix (mix-weighted batch-of-1 service is ~35 s), so the
    // policy comparison runs in the stable-queue regime; --arrival-rate
    // pushes it into overload.
    const int max_batch = bo.batch > 0 ? bo.batch : 8;
    const double rate =
        bo.arrival_rate > 0.0 ? bo.arrival_rate : 0.025;
    const int num_requests = 24;

    QueueConfig queue;
    queue.process = ArrivalProcess::OpenPoisson;
    queue.arrival_rate_rps = rate;
    queue.num_requests = num_requests;
    queue.seed = 42;
    queue.mix = standardServingMix();

    std::printf("mix: %zu classes, %d requests, open-loop %.3f "
                "req/s, max batch %d\n",
                queue.mix.size(), num_requests, rate, max_batch);
    std::printf("(latencies are simulated accelerator seconds on "
                "the %s config)\n\n",
                AccelConfig::focus().name.c_str());

    ServingSimulator sim(queue, AccelConfig::focus(),
                         benchEvalOptions(bo));
    BenchRecorder rec("serving", bo);

    // Dynamic-batching timeout: the former holds an open batch for
    // up to ~3 mean batch-of-1 service times, trading a bounded
    // formation wait for occupancy.  Fixed rather than rate-scaled
    // so raising --arrival-rate grows the batches.
    const double timeout_s = 120.0;

    TextTable table({"Policy", "Process", "MaxB", "Batches", "Occup",
                     "Req/min", "p50(s)", "p95(s)", "p99(s)", "SLO"});

    SchedulerConfig single;
    single.policy = BatchPolicy::Single;
    single.max_batch = 1;
    addPolicyRow(table, "open", sim.run(single), 1, rec);

    SchedulerConfig fixed;
    fixed.policy = BatchPolicy::FixedSize;
    fixed.max_batch = max_batch;
    addPolicyRow(table, "open", sim.run(fixed), max_batch, rec);

    SchedulerConfig timeout;
    timeout.policy = BatchPolicy::Timeout;
    timeout.max_batch = max_batch;
    timeout.timeout_s = timeout_s;
    addPolicyRow(table, "open", sim.run(timeout), max_batch,
                 rec);

    SchedulerConfig conc;
    conc.policy = BatchPolicy::ConcAware;
    conc.max_batch = max_batch;
    conc.timeout_s = timeout_s;
    const ServingReport conc_rep = sim.run(conc);
    addPolicyRow(table, "open", conc_rep, max_batch, rec);

    // Closed loop: the same mix issued by a finite client
    // population; offered load self-limits to the service rate.
    QueueConfig closed = queue;
    closed.process = ArrivalProcess::ClosedLoop;
    closed.clients = 4;
    closed.think_mean_s = 30.0;
    ServingSimulator closed_sim = sim.withQueue(closed);
    SchedulerConfig closed_sched;
    closed_sched.policy = BatchPolicy::Timeout;
    closed_sched.max_batch = max_batch;
    addPolicyRow(table, "closed", closed_sim.run(closed_sched),
                 max_batch, rec);

    std::printf("%s\n", table.render().c_str());
    std::printf("(timeout policies use timeout = %.1f s; closed "
                "loop: %d clients, %.0f s mean think)\n\n",
                timeout_s, closed.clients, closed.think_mean_s);

    // Accuracy is a property of the method, not the schedule: the
    // delta vs the dense reference shows what concentration costs
    // each class.  Latency columns are from the conc-aware run.
    TextTable cls({"Class", "Req", "Solo(s)", "MeanLat(s)", "SLO",
                   "Acc", "Dense", "dAcc"});
    for (const ClassOutcome &co : conc_rep.classes) {
        cls.addRow({co.label, std::to_string(co.requests),
                    fmtF(co.solo_latency_s, 1),
                    fmtF(co.mean_latency_s, 1),
                    fmtPct(co.slo_attainment), fmtPct(co.accuracy),
                    fmtPct(co.dense_accuracy),
                    fmtF(co.accuracyDelta() * 100.0, 1)});
    }
    std::printf("%s\n", cls.render().c_str());

    // ---- cross-request prefix cache ----
    // Everything above this marker runs without a cache; the cache
    // sections below it size their budgets explicitly.
    std::printf("prefix-cache: cross-request retained-token cache\n\n");

    // A longer stream than the policy tables: with the standard
    // mix's Zipf(0.9) identities over 256 prefixes per class, hot
    // prefixes need ~10+ draws per class to repeat enough for the
    // doorkeeper to admit and the budget sweep to separate.
    QueueConfig cache_queue = queue;
    cache_queue.num_requests = 8 * num_requests;
    ServingSimulator csim = sim.withQueue(cache_queue);
    SchedulerConfig csched;
    csched.policy = BatchPolicy::Timeout;
    csched.max_batch = max_batch;
    csched.timeout_s = timeout_s;

    // Budgets in units of the Focus class's slab so the sweep spans
    // "one resident prefix" to "whole working set" at any model
    // scale; the table prints real megabytes.
    const double slab_mb =
        static_cast<double>(
            csim.comboSlabSpec(csim.classCombo(0), "probe").bytes()) /
        (1024.0 * 1024.0);
    TextTable sweep({"Budget(MB)", "HitRate", "Hits", "Adm", "Evict",
                     "Res(MB)", "RTerr(1e-3)", "p50(s)", "p95(s)",
                     "SLO"});
    ServingReport best;
    for (const int slabs : {0, 2, 8, 64}) {
        PrefixCacheConfig pc;
        pc.budget_bytes = static_cast<int64_t>(slabs) *
            csim.comboSlabSpec(csim.classCombo(0), "probe").bytes();
        csim.setPrefixCache(pc);
        const ServingReport rep = csim.run(csched);
        const PrefixCacheStats &pcs = rep.prefix_cache;
        sweep.addRow(
            {slabs == 0 ? "off" : fmtF(slabs * slab_mb, 2),
             slabs == 0 ? "-" : fmtPct(pcs.hitRate()),
             std::to_string(pcs.hits), std::to_string(pcs.admissions),
             std::to_string(pcs.evictions),
             fmtF(static_cast<double>(pcs.bytes_resident) /
                      (1024.0 * 1024.0), 2),
             fmtF(pcs.meanRoundTripError() * 1e3, 3),
             fmtF(rep.latency.p50, 1), fmtF(rep.latency.p95, 1),
             fmtPct(rep.slo_attainment)});
        const std::string tag = "cache_s" + std::to_string(slabs);
        rec.metric(tag + "_hit_rate", pcs.hitRate());
        rec.metric(tag + "_p95_s", rep.latency.p95);
        rec.metric(tag + "_mean_s", rep.latency.mean);
        if (slabs == 64) {
            best = rep;
        }
    }
    std::printf("fp16 slab budget sweep (%d requests, timeout "
                "policy; budgets in %.2f MB slabs):\n%s\n",
                cache_queue.num_requests, slab_mb,
                sweep.render().c_str());

    // Per-class view at the largest budget: the hit-solo column is
    // the batch-of-1 service of a cache hit (text rows + cached-KV
    // streaming only) against the full recompute.
    TextTable chit({"Class", "Req", "Hits", "Solo(s)", "HitSolo(s)",
                    "MeanLat(s)"});
    for (size_t c = 0; c < best.classes.size(); ++c) {
        const ClassOutcome &co = best.classes[c];
        const int cid = static_cast<int>(c);
        chit.addRow({co.label, std::to_string(co.requests),
                     std::to_string(co.prefix_hits),
                     fmtF(csim.classSolo(cid).seconds(), 1),
                     fmtF(csim.classHitSolo(cid).seconds(), 1),
                     fmtF(co.mean_latency_s, 1)});
        rec.metric("cache_hits_class" + std::to_string(cid),
                   co.prefix_hits);
    }
    std::printf("per-class cache effect at the largest budget:\n%s\n",
                chit.render().c_str());

    // Per-replica caches make routing policy visible: hash-affinity
    // routing concentrates a prefix's repeats on the replica holding
    // its slab, round-robin scatters them across all caches.
    TextTable route({"Routing", "HitRate", "Hits", "p95(s)", "SLO"});
    for (const RoutingPolicy policy :
         {RoutingPolicy::HashRing, RoutingPolicy::RoundRobin}) {
        ClusterConfig cfg;
        cfg.replicas = 4;
        cfg.routing = policy;
        cfg.prefix_cache.budget_bytes = 16 *
            csim.comboSlabSpec(csim.classCombo(0), "probe").bytes();
        const ClusterReport rep =
            ClusterSimulator(csim, cfg).run(csched);
        route.addRow({routingPolicyName(policy),
                      fmtPct(rep.prefix_cache.hitRate()),
                      std::to_string(rep.prefix_cache.hits),
                      fmtF(rep.merged.latency.p95, 1),
                      fmtPct(rep.merged.slo_attainment)});
        rec.metric(std::string("cache_") + routingPolicyName(policy) +
                       "_hit_rate",
                   rep.prefix_cache.hitRate());
    }
    std::printf("routing policy vs per-replica caches (4 replicas, "
                "16-slab budget each):\n%s\n", route.render().c_str());
    return 0;
}
