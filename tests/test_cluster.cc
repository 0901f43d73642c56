/**
 * @file
 * Tests for the cluster serving layer (serve/cluster.h).
 *
 * The load-bearing contract is *bit-identity*: a cluster of one
 * replica with default knobs must reproduce every ServingSimulator
 * metric exactly, at every thread count and under both cycle-model
 * backends.  Around it sit property tests for the consistent-hash
 * ring (balance, minimal remapping, history independence), the
 * interconnect term's exact-zero-at-split-1 guarantee, behaviour
 * tests for shedding, continuous batching and replica scaling, and
 * fleet invariants over randomized configs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/thread_pool.h"
#include "serve/cluster.h"
#include "sim/systolic.h"

namespace focus
{
namespace
{

QueueConfig
smallOpenConfig(int requests = 6, double rate_rps = 0.05)
{
    QueueConfig q;
    q.process = ArrivalProcess::OpenPoisson;
    q.arrival_rate_rps = rate_rps;
    q.num_requests = requests;
    q.seed = 42;

    RequestClass focus_cls;
    focus_cls.model = "Llava-Vid";
    focus_cls.dataset = "VideoMME";
    focus_cls.method = MethodConfig::focusFull();
    focus_cls.weight = 3.0;
    focus_cls.slo_latency_s = 120.0;
    q.mix.push_back(focus_cls);

    RequestClass dense_cls;
    dense_cls.model = "Llava-Vid";
    dense_cls.dataset = "VideoMME";
    dense_cls.method = MethodConfig::dense();
    dense_cls.weight = 1.0;
    dense_cls.slo_latency_s = 480.0;
    q.mix.push_back(dense_cls);
    return q;
}

EvalOptions
smallEval()
{
    EvalOptions opts;
    opts.samples = 2;
    opts.seed = 42;
    return opts;
}

// ---- hash ring: properties ----

TEST(HashRing, RoutesDeterministicallyInRange)
{
    const HashRing ring(8);
    EXPECT_EQ(ring.replicas(), 8);
    for (int i = 0; i < 1000; ++i) {
        const std::string key = "key-" + std::to_string(i);
        const int r = ring.route(key);
        EXPECT_GE(r, 0);
        EXPECT_LT(r, 8);
        EXPECT_EQ(r, ring.route(key));
        EXPECT_EQ(r, ring.route(HashRing::hashKey(key)));
    }
}

TEST(HashRing, VirtualNodesBoundLoadImbalance)
{
    const int replicas = 8;
    const int keys = 20000;
    const HashRing ring(replicas);
    std::vector<int> hits(replicas, 0);
    for (int i = 0; i < keys; ++i) {
        hits[static_cast<size_t>(
            ring.route("prefix#" + std::to_string(i)))] += 1;
    }
    const double mean =
        static_cast<double>(keys) / static_cast<double>(replicas);
    for (int r = 0; r < replicas; ++r) {
        // Every replica owns a meaningful share...
        EXPECT_GT(hits[static_cast<size_t>(r)], 0.5 * mean);
        // ...and none dominates (64 vnodes keep max/mean modest).
        EXPECT_LT(hits[static_cast<size_t>(r)], 1.5 * mean);
    }
}

TEST(HashRing, NearIdenticalKeysStillSpread)
{
    // The serving router's real key space: a handful of class labels
    // crossed with small sequential prefix ids.  Keys differing only
    // in a short suffix must not cluster on the ring (this is why
    // hashKey finishes with an avalanche mix — bare FNV-1a fails it).
    const int replicas = 8;
    const HashRing ring(replicas);
    std::vector<int> hits(replicas, 0);
    int keys = 0;
    for (const char *cls : {"Llava-Vid/VideoMME/Focus",
                            "Llava-Vid/VideoMME/Dense",
                            "MiniCPM/MVBench/Focus",
                            "Llava-OV/MLVU-Long/Focus"}) {
        for (int p = 0; p < 64; ++p) {
            hits[static_cast<size_t>(ring.route(
                std::string(cls) + "#" + std::to_string(p)))] += 1;
            keys += 1;
        }
    }
    const double mean =
        static_cast<double>(keys) / static_cast<double>(replicas);
    for (int r = 0; r < replicas; ++r) {
        // Loose band — 256 keys carry real sampling noise — but each
        // replica must own a share, and a clustered hash (a ~4x
        // pile-up on 3 of 8 replicas) must fail loudly.
        EXPECT_GT(hits[static_cast<size_t>(r)], 0.3 * mean);
        EXPECT_LT(hits[static_cast<size_t>(r)], 2.0 * mean);
    }
}

TEST(HashRing, AddingAReplicaMovesOnlyItsShare)
{
    const int keys = 4000;
    const HashRing before(7);
    const HashRing ring(8);
    EXPECT_EQ(ring.replicas(), 8);
    const int added = 7;
    int moved = 0;
    for (int i = 0; i < keys; ++i) {
        const std::string key = "k" + std::to_string(i);
        const int now = ring.route(key);
        if (now != before.route(key)) {
            // A key only ever moves *to* the new replica.
            EXPECT_EQ(now, added);
            moved += 1;
        }
    }
    // Expected movement is K/N = 500; allow 2x slack, but demand
    // some movement (the new replica is not idle).
    EXPECT_GT(moved, 0);
    EXPECT_LT(moved, 2 * keys / 8);
}

TEST(HashRingDeathTest, RejectsDegenerateRings)
{
    EXPECT_EXIT(HashRing(0), ::testing::ExitedWithCode(1),
                "replica");
    EXPECT_EXIT(HashRing(-1), ::testing::ExitedWithCode(1),
                "replica");
}

TEST(ClusterDeathTest, RejectsInvalidConfigs)
{
    const QueueConfig q = smallOpenConfig();
    ServingSimulator base(q, AccelConfig::focus(), smallEval());

    ClusterConfig c0;
    c0.replicas = 0;
    EXPECT_EXIT(ClusterSimulator(base, c0),
                ::testing::ExitedWithCode(1), "replica");

    ClusterConfig bad_tp;
    bad_tp.tensor_parallel = 0;
    EXPECT_EXIT(ClusterSimulator(base, bad_tp),
                ::testing::ExitedWithCode(1),
                "invalid split factor");

    // NaN must fail every range check: a NaN theta used to turn
    // continuous batching on, a NaN backlog bound to never shed.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double theta : {1.0, nan}) {
        ClusterConfig bad_theta;
        bad_theta.continuous_theta = theta;
        EXPECT_EXIT(ClusterSimulator(base, bad_theta),
                    ::testing::ExitedWithCode(1), "continuous_theta");
    }

    for (const double bound : {-0.5, nan}) {
        ClusterConfig bad_shed;
        bad_shed.shed_backlog_s = bound;
        EXPECT_EXIT(ClusterSimulator(base, bad_shed),
                    ::testing::ExitedWithCode(1), "shed_backlog_s");
    }

    QueueConfig closed = q;
    closed.process = ArrivalProcess::ClosedLoop;
    closed.clients = 2;
    ServingSimulator closed_base(closed, AccelConfig::focus(),
                                 smallEval());
    ClusterSimulator cluster(closed_base, ClusterConfig{});
    EXPECT_EXIT(cluster.run(SchedulerConfig{}),
                ::testing::ExitedWithCode(1), "open-loop");
}

// ---- cluster of one: bit-identity ----

void
expectReportsIdentical(const ServingReport &a, const ServingReport &b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.throughput_rps, b.throughput_rps);
    EXPECT_EQ(a.latency.mean, b.latency.mean);
    EXPECT_EQ(a.latency.p50, b.latency.p50);
    EXPECT_EQ(a.latency.p95, b.latency.p95);
    EXPECT_EQ(a.latency.p99, b.latency.p99);
    EXPECT_EQ(a.latency.max, b.latency.max);
    EXPECT_EQ(a.mean_occupancy, b.mean_occupancy);
    EXPECT_EQ(a.slo_attainment, b.slo_attainment);
    EXPECT_EQ(a.shed, b.shed);

    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
        const RequestOutcome &x = a.outcomes[i];
        const RequestOutcome &y = b.outcomes[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.class_id, y.class_id);
        EXPECT_EQ(x.batch_id, y.batch_id);
        EXPECT_EQ(x.batch_size, y.batch_size);
        EXPECT_EQ(x.arrival_s, y.arrival_s);
        EXPECT_EQ(x.start_s, y.start_s);
        EXPECT_EQ(x.finish_s, y.finish_s);
        EXPECT_EQ(x.slo_met, y.slo_met);
        EXPECT_EQ(x.shed, y.shed);
    }

    ASSERT_EQ(a.batches.size(), b.batches.size());
    for (size_t i = 0; i < a.batches.size(); ++i) {
        const BatchRecord &x = a.batches[i];
        const BatchRecord &y = b.batches[i];
        EXPECT_EQ(x.request_ids, y.request_ids);
        EXPECT_EQ(x.ready_s, y.ready_s);
        EXPECT_EQ(x.start_s, y.start_s);
        EXPECT_EQ(x.service_s, y.service_s);
        EXPECT_EQ(x.metrics->cycles, y.metrics->cycles);
        EXPECT_EQ(x.metrics->dramTotalBytes(),
                  y.metrics->dramTotalBytes());
    }

    ASSERT_EQ(a.classes.size(), b.classes.size());
    for (size_t i = 0; i < a.classes.size(); ++i) {
        const ClassOutcome &x = a.classes[i];
        const ClassOutcome &y = b.classes[i];
        EXPECT_EQ(x.label, y.label);
        EXPECT_EQ(x.requests, y.requests);
        EXPECT_EQ(x.shed, y.shed);
        EXPECT_EQ(x.accuracy, y.accuracy);
        EXPECT_EQ(x.mean_latency_s, y.mean_latency_s);
        EXPECT_EQ(x.slo_attainment, y.slo_attainment);
        EXPECT_EQ(x.solo_latency_s, y.solo_latency_s);
    }
}

TEST(ClusterEquivalence, ClusterOfOneIsBitIdenticalToServingSim)
{
    const QueueConfig q = smallOpenConfig(6);
    SchedulerConfig sched;
    sched.policy = BatchPolicy::Timeout;
    sched.max_batch = 4;
    sched.timeout_s = 25.0;

    for (const int threads : {1, 4}) {
        ThreadPool pool(threads);

        ServingSimulator ref(q, AccelConfig::focus(), smallEval());
        const ServingReport expect = ref.run(sched, &pool);

        ServingSimulator base(q, AccelConfig::focus(), smallEval());
        ClusterConfig one;
        one.replicas = 1;
        ClusterSimulator cluster(base, one);
        const ClusterReport got = cluster.run(sched, &pool);

        expectReportsIdentical(expect, got.merged);
        EXPECT_EQ(got.admitted, 6);
        EXPECT_EQ(got.shed, 0);
        EXPECT_EQ(got.shed_rate, 0.0);
        EXPECT_EQ(got.load_imbalance, 1.0);
        EXPECT_EQ(got.interconnect_bytes, 0u);
        ASSERT_EQ(got.replicas.size(), 1u);
        EXPECT_EQ(got.replicas[0].routed, 6);
        EXPECT_EQ(got.replicas[0].batches,
                  static_cast<int>(expect.batches.size()));
        EXPECT_EQ(got.replicas[0].makespan_s, expect.makespan_s);
        for (const BatchRecord &b : got.merged.batches) {
            EXPECT_EQ(b.replica, 0);
        }
    }
}

TEST(ClusterEquivalence, RoundRobinRoutingMatchesHashRingOfOne)
{
    const QueueConfig q = smallOpenConfig(6);
    const SchedulerConfig sched;
    ServingSimulator base(q, AccelConfig::focus(), smallEval());

    ClusterConfig ring_cfg;
    ClusterConfig rr_cfg;
    rr_cfg.routing = RoutingPolicy::RoundRobin;
    const ClusterReport a =
        ClusterSimulator(base, ring_cfg).run(sched);
    const ClusterReport b =
        ClusterSimulator(base, rr_cfg).run(sched);
    expectReportsIdentical(a.merged, b.merged);
}

// ---- multi-replica behaviour ----

TEST(Cluster, RoundRobinSpreadsRequestsEvenly)
{
    const QueueConfig q = smallOpenConfig(9, 0.5);
    ServingSimulator base(q, AccelConfig::focus(), smallEval());
    ClusterConfig cfg;
    cfg.replicas = 3;
    cfg.routing = RoutingPolicy::RoundRobin;
    const ClusterReport rep =
        ClusterSimulator(base, cfg).run(SchedulerConfig{});
    ASSERT_EQ(rep.replicas.size(), 3u);
    for (const ReplicaStats &rs : rep.replicas) {
        EXPECT_EQ(rs.routed, 3);
    }
    EXPECT_EQ(rep.load_imbalance, 1.0);
    EXPECT_EQ(rep.shed, 0);
}

TEST(Cluster, HashRoutingKeepsPrefixAffinity)
{
    // Same (class, prefix) key always lands on the same replica.
    const QueueConfig q = smallOpenConfig(24, 0.5);
    const std::vector<ServeRequest> stream =
        RequestQueue(q).generate();
    const HashRing ring(4);
    std::map<std::string, int> seen;
    for (const ServeRequest &r : stream) {
        const RequestClass &cls =
            q.mix[static_cast<size_t>(r.class_id)];
        const std::string key =
            ClusterSimulator::routingKey(r, cls);
        const int replica = ring.route(key);
        const auto it = seen.find(key);
        if (it != seen.end()) {
            EXPECT_EQ(it->second, replica);
        } else {
            seen.emplace(key, replica);
        }
    }
}

TEST(Cluster, MoreReplicasNeverSlowTheFleet)
{
    const QueueConfig q = smallOpenConfig(10, 1.0);
    ServingSimulator base(q, AccelConfig::focus(), smallEval());
    // Single policy: removing requests from a FIFO server never
    // delays the rest, so sharding monotonically helps (batching
    // policies add timeout-flush dynamics that can mask this).
    SchedulerConfig sched;
    sched.policy = BatchPolicy::Single;

    double prev_makespan = 0.0;
    bool first = true;
    for (const int replicas : {1, 2, 4}) {
        ClusterConfig cfg;
        cfg.replicas = replicas;
        cfg.routing = RoutingPolicy::RoundRobin;
        const ClusterReport rep =
            ClusterSimulator(base, cfg).run(sched);
        EXPECT_EQ(rep.merged.outcomes.size(), 10u);
        EXPECT_EQ(rep.shed, 0);
        if (!first) {
            EXPECT_LE(rep.merged.makespan_s, prev_makespan);
        }
        prev_makespan = rep.merged.makespan_s;
        first = false;
    }
}

TEST(Cluster, SheddingBoundsBacklogAndCountsMisses)
{
    // An overloaded single replica with a tight backlog bound must
    // shed, and everything it sheds counts as an SLO miss.
    const QueueConfig q = smallOpenConfig(12, 100.0);
    ServingSimulator base(q, AccelConfig::focus(), smallEval());

    ClusterConfig tight;
    tight.shed_backlog_s = 1.0;
    const ClusterReport shed_rep =
        ClusterSimulator(base, tight).run(SchedulerConfig{});
    EXPECT_GT(shed_rep.shed, 0);
    EXPECT_EQ(shed_rep.admitted + shed_rep.shed, 12);
    EXPECT_EQ(shed_rep.merged.shed, shed_rep.shed);
    EXPECT_EQ(shed_rep.merged.outcomes.size(), 12u);

    int shed_seen = 0;
    for (const RequestOutcome &o : shed_rep.merged.outcomes) {
        if (o.shed) {
            shed_seen += 1;
            EXPECT_FALSE(o.slo_met);
            EXPECT_EQ(o.batch_id, -1);
            EXPECT_EQ(o.finish_s, o.arrival_s);
        }
    }
    EXPECT_EQ(shed_seen, shed_rep.shed);

    int class_shed = 0;
    for (const ClassOutcome &c : shed_rep.merged.classes) {
        class_shed += c.shed;
    }
    EXPECT_EQ(class_shed, shed_rep.shed);

    // A looser bound sheds no more than a tighter one; no bound
    // sheds nothing.
    ClusterConfig loose = tight;
    loose.shed_backlog_s = 1e9;
    const ClusterReport loose_rep =
        ClusterSimulator(base, loose).run(SchedulerConfig{});
    EXPECT_LE(loose_rep.shed, shed_rep.shed);

    const ClusterReport open_rep =
        ClusterSimulator(base, ClusterConfig{})
            .run(SchedulerConfig{});
    EXPECT_EQ(open_rep.shed, 0);
    // Shedding can only improve the served latency tail.
    EXPECT_LE(shed_rep.merged.latency.p99,
              open_rep.merged.latency.p99);
}

TEST(Cluster, TensorParallelAddsInterconnectAndCutsMakespan)
{
    const QueueConfig q = smallOpenConfig(6, 1.0);
    ServingSimulator base(q, AccelConfig::focus(), smallEval());
    const SchedulerConfig sched;

    ClusterConfig plain;
    const ClusterReport unsplit =
        ClusterSimulator(base, plain).run(sched);
    // The interconnect term is *exactly* zero without a split.
    EXPECT_EQ(unsplit.interconnect_bytes, 0u);
    for (const BatchRecord &b : unsplit.merged.batches) {
        EXPECT_EQ(b.metrics->interconnect_bytes, 0u);
        EXPECT_EQ(b.metrics->interconnect_cycles, 0u);
        EXPECT_EQ(b.metrics->energy.interconnect, 0.0);
    }

    ClusterConfig tp2 = plain;
    tp2.tensor_parallel = 2;
    const ClusterReport split =
        ClusterSimulator(base, tp2).run(sched);
    EXPECT_GT(split.interconnect_bytes, 0u);
    // Each shard computes roughly half a layer between collectives,
    // so batches finish faster despite the interconnect tax.
    EXPECT_LT(split.merged.makespan_s, unsplit.merged.makespan_s);
    for (const BatchRecord &b : split.merged.batches) {
        EXPECT_GT(b.metrics->interconnect_bytes, 0u);
        EXPECT_GT(b.metrics->interconnect_cycles, 0u);
    }
}

TEST(Cluster, LayerCyclesPartitionTotalCycles)
{
    const QueueConfig q = smallOpenConfig(4);
    ServingSimulator base(q, AccelConfig::focus(), smallEval());
    ClusterSimulator cluster(base, ClusterConfig{});
    const ClusterReport rep = cluster.run(SchedulerConfig{});
    for (const BatchRecord &b : rep.merged.batches) {
        ASSERT_FALSE(b.metrics->layer_cycles.empty());
        uint64_t sum = 0;
        for (const uint64_t c : b.metrics->layer_cycles) {
            sum += c;
        }
        EXPECT_EQ(sum, b.metrics->cycles);
    }
}

TEST(Cluster, ContinuousBatchingNeverStretchesTheMakespan)
{
    // Launching at the SEC knee can only overlap work that serial
    // boundaries would serialize.
    const QueueConfig q = smallOpenConfig(10, 2.0);
    ServingSimulator base(q, AccelConfig::focus(), smallEval());
    SchedulerConfig sched;
    sched.policy = BatchPolicy::FixedSize;
    sched.max_batch = 2;

    ClusterConfig serial;
    const ClusterReport serial_rep =
        ClusterSimulator(base, serial).run(sched);

    ClusterConfig cont;
    cont.continuous_theta = 0.5;
    const ClusterReport cont_rep =
        ClusterSimulator(base, cont).run(sched);

    EXPECT_GT(cont_rep.merged.makespan_s, 0.0);
    EXPECT_LE(cont_rep.merged.makespan_s,
              serial_rep.merged.makespan_s);
    EXPECT_EQ(cont_rep.merged.outcomes.size(), 10u);
    for (const RequestOutcome &o : cont_rep.merged.outcomes) {
        EXPECT_GE(o.start_s, o.arrival_s);
        EXPECT_GT(o.finish_s, o.start_s);
    }
}

TEST(Cluster, AdvancedKnobsStayThreadDeterministic)
{
    const QueueConfig q = smallOpenConfig(8, 1.0);
    SchedulerConfig sched;
    sched.policy = BatchPolicy::Timeout;
    sched.max_batch = 4;

    // Continuous batching costs each batch at pick time; serial
    // boundaries pre-cost the tensor-parallel compositions across the
    // pool.  Both must be thread-count invariant.
    for (const double theta : {0.3, 0.0}) {
        ClusterConfig cfg;
        cfg.replicas = 2;
        cfg.tensor_parallel = 2;
        cfg.continuous_theta = theta;
        cfg.shed_backlog_s = 500.0;

        ThreadPool pool1(1);
        ServingSimulator base1(q, AccelConfig::focus(), smallEval());
        const ClusterReport a =
            ClusterSimulator(base1, cfg).run(sched, &pool1);

        ThreadPool pool4(4);
        ServingSimulator base4(q, AccelConfig::focus(), smallEval());
        const ClusterReport b =
            ClusterSimulator(base4, cfg).run(sched, &pool4);

        SCOPED_TRACE("theta " + std::to_string(theta));
        expectReportsIdentical(a.merged, b.merged);
        EXPECT_GT(a.interconnect_bytes, 0u);
        EXPECT_EQ(a.interconnect_bytes, b.interconnect_bytes);
        EXPECT_EQ(a.shed, b.shed);
        ASSERT_EQ(a.replicas.size(), b.replicas.size());
        for (size_t r = 0; r < a.replicas.size(); ++r) {
            EXPECT_EQ(a.replicas[r].routed, b.replicas[r].routed);
            EXPECT_EQ(a.replicas[r].interconnect_bytes,
                      b.replicas[r].interconnect_bytes);
        }
    }
}

TEST(Cluster, BatchesOfOneCompositionShareOneMetricsEntry)
{
    // Batch records point into the simulator's batch-cost memo
    // instead of copying a fused batch's metrics (Fig. 13 tile log
    // included), so every batch of one composition on one split
    // shares one entry — on the single box and across replicas.
    const QueueConfig q = smallOpenConfig(12, 1.0);
    SchedulerConfig sched;
    sched.policy = BatchPolicy::FixedSize;
    sched.max_batch = 2;
    ServingSimulator base(q, AccelConfig::focus(), smallEval());
    ClusterConfig split;
    split.replicas = 2;
    split.tensor_parallel = 2;

    const ServingReport single = base.run(sched);
    const ServingReport fleet =
        ClusterSimulator(base, split).run(sched).merged;
    for (const ServingReport *rep : {&single, &fleet}) {
        std::vector<std::vector<size_t>> comps;
        for (const BatchRecord &b : rep->batches) {
            ASSERT_NE(b.metrics, nullptr);
            std::vector<size_t> comp;
            for (const int64_t id : b.request_ids) {
                const RequestOutcome &o =
                    rep->outcomes[static_cast<size_t>(id)];
                comp.push_back(ServingSimulator::comboCode(
                    base.classCombo(o.class_id), o.prefix_hit));
            }
            comps.push_back(std::move(comp));
        }
        int repeats = 0;
        for (size_t i = 0; i < comps.size(); ++i) {
            for (size_t j = i + 1; j < comps.size(); ++j) {
                if (comps[i] == comps[j]) {
                    EXPECT_EQ(rep->batches[i].metrics,
                              rep->batches[j].metrics);
                    repeats += 1;
                }
            }
        }
        EXPECT_GT(repeats, 0); // the stream repeats a composition
    }
}

// ---- randomized fleet invariants ----

TEST(ClusterProperty, RandomConfigsKeepFleetInvariants)
{
    // One calibration serves every draw (withQueue carries it and the
    // batch-cost memo to each new stream of the same mix).
    ServingSimulator sim(smallOpenConfig(), AccelConfig::focus(),
                         smallEval());
    int64_t slab_bytes = 0;
    for (const int cls : {0, 1}) {
        const SlabSpec spec =
            sim.comboSlabSpec(sim.classCombo(cls), "slab");
        slab_bytes = std::max(slab_bytes, (spec.bytes() + 63) / 64 * 64);
    }
    const BatchPolicy policies[] = {BatchPolicy::Single,
                                    BatchPolicy::FixedSize,
                                    BatchPolicy::Timeout,
                                    BatchPolicy::ConcAware};
    Rng rng(2513);
    int shed_total = 0, single_box = 0;
    for (int i = 0; i < 40; ++i) {
        SCOPED_TRACE("draw " + std::to_string(i));
        // 0.01 to 2 requests per second.
        QueueConfig q =
            smallOpenConfig(1 + static_cast<int>(rng.uniformInt(20)),
                            std::pow(10.0, rng.uniform(-2.0, 0.3)));
        q.seed = rng.next();
        for (RequestClass &c : q.mix) {
            c.prefix_cardinality = 1 + static_cast<int>(rng.uniformInt(4));
        }
        SchedulerConfig sched;
        sched.policy = policies[i % 4];
        sched.max_batch = 1 + static_cast<int>(rng.uniformInt(8));
        sched.timeout_s = rng.uniform(0.0, 200.0);

        ClusterConfig cfg;
        cfg.replicas = 1 + static_cast<int>(rng.uniformInt(8));
        cfg.tensor_parallel = 1 + static_cast<int>(rng.uniformInt(2));
        cfg.continuous_theta =
            rng.bernoulli(0.5) ? rng.uniform(0.0, 0.9) : 0.0;
        cfg.shed_backlog_s =
            rng.bernoulli(0.5) ? rng.uniform(0.0, 200.0) : 0.0;
        if (rng.bernoulli(0.5)) {
            cfg.prefix_cache.budget_bytes = slab_bytes *
                (1 + static_cast<int64_t>(rng.uniformInt(4)));
        }
        if (i % 8 == 0) {
            // The single-box shape, checked against run() below.
            cfg.replicas = 1;
            cfg.tensor_parallel = 1;
            cfg.continuous_theta = 0.0;
            cfg.shed_backlog_s = 0.0;
        }

        sim = sim.withQueue(q);
        const ClusterReport rep = ClusterSimulator(sim, cfg).run(sched);
        const size_t n = static_cast<size_t>(q.num_requests);
        ASSERT_EQ(rep.merged.outcomes.size(), n);
        EXPECT_EQ(rep.admitted + rep.shed, static_cast<int>(n));
        EXPECT_EQ(rep.merged.shed, rep.shed);
        shed_total += rep.shed;

        std::vector<int> seen(n, 0);
        std::vector<int> batches_of(static_cast<size_t>(cfg.replicas), 0);
        std::vector<const BatchRecord *> last(
            static_cast<size_t>(cfg.replicas), nullptr);
        for (size_t b = 0; b < rep.merged.batches.size(); ++b) {
            const BatchRecord &batch = rep.merged.batches[b];
            ASSERT_GE(batch.replica, 0);
            ASSERT_LT(batch.replica, cfg.replicas);
            const size_t r = static_cast<size_t>(batch.replica);
            batches_of[r] += 1;
            for (const int64_t id : batch.request_ids) {
                ASSERT_LT(static_cast<size_t>(id), n);
                seen[static_cast<size_t>(id)] += 1;
                const RequestOutcome &o =
                    rep.merged.outcomes[static_cast<size_t>(id)];
                EXPECT_FALSE(o.shed);
                EXPECT_EQ(o.batch_id, static_cast<int>(b));
                EXPECT_EQ(o.start_s, batch.start_s);
                EXPECT_EQ(o.finish_s, batch.start_s + batch.service_s);
                EXPECT_GE(o.start_s, o.arrival_s);
            }
            // Each replica's batches start in order; with serial
            // boundaries they never overlap either.
            if (last[r] != nullptr) {
                EXPECT_GE(batch.start_s, last[r]->start_s);
                if (cfg.continuous_theta <= 0.0) {
                    EXPECT_GE(batch.start_s,
                              last[r]->start_s + last[r]->service_s);
                }
            }
            last[r] = &batch;
        }
        for (size_t j = 0; j < n; ++j) {
            EXPECT_EQ(seen[j], rep.merged.outcomes[j].shed ? 0 : 1)
                << "request " << j;
        }
        int routed = 0;
        for (const ReplicaStats &rs : rep.replicas) {
            EXPECT_EQ(rs.batches,
                      batches_of[static_cast<size_t>(rs.replica)]);
            routed += rs.routed;
        }
        EXPECT_EQ(routed, static_cast<int>(n));
        EXPECT_LE(rep.merged.latency.p50, rep.merged.latency.p95);
        EXPECT_LE(rep.merged.latency.p95, rep.merged.latency.p99);
        EXPECT_LE(rep.merged.latency.p99, rep.merged.latency.max);
        EXPECT_GE(rep.merged.slo_attainment, 0.0);
        EXPECT_LE(rep.merged.slo_attainment, 1.0);

        if (cfg.replicas == 1 && cfg.tensor_parallel == 1 &&
            cfg.continuous_theta <= 0.0 && cfg.shed_backlog_s <= 0.0) {
            sim.setPrefixCache(cfg.prefix_cache);
            const ServingReport box = sim.run(sched);
            expectReportsIdentical(box, rep.merged);
            EXPECT_EQ(box.prefix_cache.hits, rep.prefix_cache.hits);
            single_box += 1;
        }
    }
    EXPECT_GT(shed_total, 0);   // the sweep exercises shedding
    EXPECT_GE(single_box, 5);   // and the cluster-of-one contract
}

} // namespace
} // namespace focus
