/**
 * @file
 * Tests for the serving layer: request-stream determinism, batch
 * formation policies, the batch-of-1 bit-identity contract against
 * Evaluator::simulate, thread-count determinism of the full serving
 * simulation, and replay invariants over randomized configs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "eval/evaluator.h"
#include "runtime/thread_pool.h"
#include "serve/serving_sim.h"
#include "workload/profiles.h"

namespace focus
{
namespace
{

QueueConfig
smallOpenConfig(int requests = 6)
{
    QueueConfig q;
    q.process = ArrivalProcess::OpenPoisson;
    q.arrival_rate_rps = 0.05;
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

/** Hand-built stream with fixed arrivals and one class. */
std::vector<ServeRequest>
arrivalsAt(const std::vector<double> &times)
{
    std::vector<ServeRequest> stream;
    for (size_t i = 0; i < times.size(); ++i) {
        ServeRequest r;
        r.id = static_cast<int64_t>(i);
        r.arrival_s = times[i];
        r.slo_latency_s = 100.0;
        stream.push_back(r);
    }
    return stream;
}

// ---- request queue ----

TEST(RequestQueue, OpenLoopDeterministicAndSorted)
{
    const QueueConfig q = smallOpenConfig(32);
    const std::vector<ServeRequest> a = RequestQueue(q).generate();
    const std::vector<ServeRequest> b = RequestQueue(q).generate();
    ASSERT_EQ(a.size(), 32u);
    ASSERT_EQ(b.size(), a.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, static_cast<int64_t>(i));
        EXPECT_EQ(a[i].class_id, b[i].class_id);
        EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
        EXPECT_GE(a[i].class_id, 0);
        EXPECT_LT(a[i].class_id, static_cast<int>(q.mix.size()));
        if (i > 0) {
            EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
        }
        EXPECT_EQ(a[i].slo_latency_s,
                  q.mix[static_cast<size_t>(a[i].class_id)]
                      .slo_latency_s);
    }
    // A different seed produces a different stream.
    QueueConfig q2 = q;
    q2.seed = 43;
    const std::vector<ServeRequest> c = RequestQueue(q2).generate();
    bool differs = false;
    for (size_t i = 0; i < c.size(); ++i) {
        differs = differs || c[i].arrival_s != a[i].arrival_s;
    }
    EXPECT_TRUE(differs);
}

TEST(RequestQueue, ClosedLoopRoundRobinThinkTimes)
{
    QueueConfig q = smallOpenConfig(9);
    q.process = ArrivalProcess::ClosedLoop;
    q.clients = 3;
    q.think_mean_s = 5.0;
    const std::vector<ServeRequest> s = RequestQueue(q).generate();
    ASSERT_EQ(s.size(), 9u);
    for (size_t i = 0; i < s.size(); ++i) {
        EXPECT_GE(s[i].think_s, 0.0);
        EXPECT_EQ(s[i].arrival_s, 0.0);
    }
}

TEST(RequestQueueDeathTest, RejectsBadConfigs)
{
    QueueConfig empty = smallOpenConfig();
    empty.mix.clear();
    EXPECT_EXIT(RequestQueue{empty}, ::testing::ExitedWithCode(1),
                "empty request mix");

    QueueConfig bad_rate = smallOpenConfig();
    bad_rate.arrival_rate_rps = 0.0;
    EXPECT_EXIT(RequestQueue{bad_rate},
                ::testing::ExitedWithCode(1), "arrival rate");

    QueueConfig bad_clients = smallOpenConfig();
    bad_clients.process = ArrivalProcess::ClosedLoop;
    bad_clients.clients = 0;
    EXPECT_EXIT(RequestQueue{bad_clients},
                ::testing::ExitedWithCode(1), "client count");

    // NaN must fail every range check, and rates must be finite: a
    // NaN or infinite arrival rate used to yield an all-NaN (or
    // all-zero) arrival stream.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double rate : {nan, inf, -1.0}) {
        QueueConfig q = smallOpenConfig();
        q.arrival_rate_rps = rate;
        EXPECT_EXIT(RequestQueue{q}, ::testing::ExitedWithCode(1),
                    "arrival_rate_rps");
    }
    for (const double weight : {nan, inf, -1.0}) {
        QueueConfig q = smallOpenConfig();
        q.mix[0].weight = weight;
        EXPECT_EXIT(RequestQueue{q}, ::testing::ExitedWithCode(1),
                    "weight");
    }
    for (const double slo : {nan, 0.0}) {
        QueueConfig q = smallOpenConfig();
        q.mix[0].slo_latency_s = slo;
        EXPECT_EXIT(RequestQueue{q}, ::testing::ExitedWithCode(1),
                    "slo_latency_s");
    }
    for (const double zipf : {nan, inf, -0.5}) {
        QueueConfig q = smallOpenConfig();
        q.mix[0].prefix_zipf = zipf;
        EXPECT_EXIT(RequestQueue{q}, ::testing::ExitedWithCode(1),
                    "prefix_zipf");
    }
    for (const double think : {nan, inf, -1.0}) {
        QueueConfig q = smallOpenConfig();
        q.process = ArrivalProcess::ClosedLoop;
        q.think_mean_s = think;
        EXPECT_EXIT(RequestQueue{q}, ::testing::ExitedWithCode(1),
                    "think_mean_s");
    }
}

// ---- batch scheduler ----

TEST(BatchSchedulerDeathTest, RejectsBadConfigs)
{
    SchedulerConfig no_batch;
    no_batch.max_batch = 0;
    EXPECT_EXIT(BatchScheduler{no_batch},
                ::testing::ExitedWithCode(1), "max_batch");

    // A NaN timeout used to pass the check and change which batches
    // form; both timeout-driven policies must reject it.
    for (const BatchPolicy policy :
         {BatchPolicy::Timeout, BatchPolicy::ConcAware}) {
        for (const double timeout :
             {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
            SchedulerConfig cfg;
            cfg.policy = policy;
            cfg.timeout_s = timeout;
            EXPECT_EXIT(BatchScheduler{cfg},
                        ::testing::ExitedWithCode(1), "timeout_s");
        }
    }
}

TEST(BatchScheduler, FixedSizeChunksWithEndFlush)
{
    SchedulerConfig cfg;
    cfg.policy = BatchPolicy::FixedSize;
    cfg.max_batch = 3;
    const BatchScheduler sched(cfg);
    const std::vector<ServeRequest> stream =
        arrivalsAt({0, 1, 2, 3, 10});
    const std::vector<BatchKey> keys(stream.size(), BatchKey{});
    const std::vector<PlannedBatch> plan =
        sched.planOpenLoop(stream, keys);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0].members,
              (std::vector<size_t>{0, 1, 2}));
    EXPECT_EQ(plan[0].ready_s, 2.0); // closes when full
    EXPECT_EQ(plan[1].members, (std::vector<size_t>{3, 4}));
    EXPECT_EQ(plan[1].ready_s, 10.0); // stream-end flush
}

TEST(BatchScheduler, TimeoutBoundsOldestWait)
{
    SchedulerConfig cfg;
    cfg.policy = BatchPolicy::Timeout;
    cfg.max_batch = 8;
    cfg.timeout_s = 10.0;
    const BatchScheduler sched(cfg);
    const std::vector<ServeRequest> stream =
        arrivalsAt({0, 5, 100});
    const std::vector<BatchKey> keys(stream.size(), BatchKey{});
    const std::vector<PlannedBatch> plan =
        sched.planOpenLoop(stream, keys);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0].members, (std::vector<size_t>{0, 1}));
    EXPECT_EQ(plan[0].ready_s, 10.0); // opened at 0, timed out
    EXPECT_EQ(plan[1].members, (std::vector<size_t>{2}));
    EXPECT_EQ(plan[1].ready_s, 110.0);
}

TEST(BatchScheduler, ModelsNeverShareABatch)
{
    SchedulerConfig cfg;
    cfg.policy = BatchPolicy::FixedSize;
    cfg.max_batch = 4;
    const BatchScheduler sched(cfg);
    const std::vector<ServeRequest> stream =
        arrivalsAt({0, 1, 2, 3});
    std::vector<BatchKey> keys(stream.size(), BatchKey{});
    keys[1].model = 1;
    keys[3].model = 1;
    const std::vector<PlannedBatch> plan =
        sched.planOpenLoop(stream, keys);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0].members, (std::vector<size_t>{0, 2}));
    EXPECT_EQ(plan[1].members, (std::vector<size_t>{1, 3}));
}

TEST(BatchScheduler, ConcAwareGroupsByRetainedTokenBand)
{
    SchedulerConfig cfg;
    cfg.policy = BatchPolicy::ConcAware;
    cfg.max_batch = 4;
    cfg.timeout_s = 100.0;
    const BatchScheduler sched(cfg);
    const std::vector<ServeRequest> stream =
        arrivalsAt({0, 1, 2, 3});
    std::vector<BatchKey> keys(stream.size(), BatchKey{});
    keys[0].cost = 1100; // same power-of-two band as 1900
    keys[1].cost = 5000; // different band
    keys[2].cost = 1900;
    keys[3].cost = 5500;
    const std::vector<PlannedBatch> plan =
        sched.planOpenLoop(stream, keys);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0].members, (std::vector<size_t>{0, 2}));
    EXPECT_EQ(plan[1].members, (std::vector<size_t>{1, 3}));
}

TEST(BatchScheduler, PickPendingHonoursPolicyAndOrder)
{
    SchedulerConfig cfg;
    cfg.policy = BatchPolicy::ConcAware;
    cfg.max_batch = 2;
    const BatchScheduler sched(cfg);
    std::vector<BatchKey> keys(4, BatchKey{});
    keys[0].cost = 1100;
    keys[1].cost = 5000;
    keys[2].cost = 1900;
    keys[3].cost = 1500;
    const std::vector<size_t> pending{0, 1, 2, 3};
    const std::vector<size_t> picked =
        sched.pickPending(pending, keys);
    // Oldest first, filled with band-compatible requests, capped.
    EXPECT_EQ(picked, (std::vector<size_t>{0, 2}));

    SchedulerConfig single;
    single.policy = BatchPolicy::Single;
    single.max_batch = 4;
    EXPECT_EQ(BatchScheduler(single).pickPending(pending, keys),
              (std::vector<size_t>{0}));
}

// ---- serving simulation ----

TEST(ServingSim, BatchOfOneIsBitIdenticalToEvaluatorSimulate)
{
    QueueConfig q = smallOpenConfig(3);
    q.mix.resize(1); // Focus class only
    ServingSimulator sim(q, AccelConfig::focus(), smallEval());

    SchedulerConfig sched;
    sched.policy = BatchPolicy::Single;
    sched.max_batch = 1;
    const ServingReport rep = sim.run(sched);

    const Evaluator ev("Llava-Vid", "VideoMME", smallEval());
    const RunMetrics ref =
        ev.simulate(MethodConfig::focusFull(), AccelConfig::focus());

    ASSERT_EQ(rep.batches.size(), 3u);
    for (const BatchRecord &b : rep.batches) {
        EXPECT_EQ(b.metrics->cycles, ref.cycles);
        EXPECT_EQ(b.metrics->stall_sec, ref.stall_sec);
        EXPECT_EQ(b.metrics->dram_act_read, ref.dram_act_read);
        EXPECT_EQ(b.metrics->dram_weights, ref.dram_weights);
        EXPECT_EQ(b.metrics->sfu_ops, ref.sfu_ops);
        EXPECT_EQ(b.metrics->sec_ops, ref.sec_ops);
        EXPECT_EQ(b.metrics->energy.total(), ref.energy.total());
        EXPECT_EQ(b.service_s, ref.seconds());
    }
    for (const RequestOutcome &o : rep.outcomes) {
        EXPECT_EQ(o.batch_size, 1);
        EXPECT_EQ(o.finish_s, o.start_s + ref.seconds());
    }
}

TEST(ServingSim, DeterministicAcrossThreadCounts)
{
    const QueueConfig q = smallOpenConfig(6);
    SchedulerConfig sched;
    sched.policy = BatchPolicy::Timeout;
    sched.max_batch = 3;
    sched.timeout_s = 30.0;

    ThreadPool p1(1), p4(4);
    ServingSimulator sim1(q, AccelConfig::focus(), smallEval());
    ServingSimulator sim4(q, AccelConfig::focus(), smallEval());
    const ServingReport r1 = sim1.run(sched, &p1);
    const ServingReport r4 = sim4.run(sched, &p4);

    ASSERT_EQ(r1.outcomes.size(), r4.outcomes.size());
    for (size_t i = 0; i < r1.outcomes.size(); ++i) {
        EXPECT_EQ(r1.outcomes[i].arrival_s, r4.outcomes[i].arrival_s);
        EXPECT_EQ(r1.outcomes[i].start_s, r4.outcomes[i].start_s);
        EXPECT_EQ(r1.outcomes[i].finish_s, r4.outcomes[i].finish_s);
        EXPECT_EQ(r1.outcomes[i].batch_id, r4.outcomes[i].batch_id);
    }
    ASSERT_EQ(r1.batches.size(), r4.batches.size());
    for (size_t b = 0; b < r1.batches.size(); ++b) {
        EXPECT_EQ(r1.batches[b].metrics->cycles,
                  r4.batches[b].metrics->cycles);
        EXPECT_EQ(r1.batches[b].service_s, r4.batches[b].service_s);
    }
    EXPECT_EQ(r1.throughput_rps, r4.throughput_rps);
    EXPECT_EQ(r1.latency.p99, r4.latency.p99);
}

TEST(ServingSim, ClosedLoopRespectsClientCausality)
{
    QueueConfig q = smallOpenConfig(8);
    q.process = ArrivalProcess::ClosedLoop;
    q.clients = 2;
    q.think_mean_s = 5.0;
    ServingSimulator sim(q, AccelConfig::focus(), smallEval());

    SchedulerConfig sched;
    sched.policy = BatchPolicy::Timeout;
    sched.max_batch = 2;
    const ServingReport rep = sim.run(sched);

    ASSERT_EQ(rep.outcomes.size(), 8u);
    for (const RequestOutcome &o : rep.outcomes) {
        EXPECT_GE(o.start_s, o.arrival_s);
        EXPECT_GT(o.finish_s, o.start_s);
    }
    // A client's next request is issued only after its previous one
    // finished (plus think time).
    for (size_t i = 0; i + 2 < rep.outcomes.size(); ++i) {
        EXPECT_GE(rep.outcomes[i + 2].arrival_s,
                  rep.outcomes[i].finish_s);
    }
    // Batches never overlap on the single accelerator.
    for (size_t b = 1; b < rep.batches.size(); ++b) {
        EXPECT_GE(rep.batches[b].start_s,
                  rep.batches[b - 1].start_s +
                      rep.batches[b - 1].service_s);
    }
}

TEST(ServingSim, ReportStatsAreConsistent)
{
    const QueueConfig q = smallOpenConfig(6);
    ServingSimulator sim(q, AccelConfig::focus(), smallEval());
    SchedulerConfig sched;
    sched.policy = BatchPolicy::Timeout;
    sched.max_batch = 3;
    sched.timeout_s = 30.0;
    const ServingReport rep = sim.run(sched);

    EXPECT_GT(rep.throughput_rps, 0.0);
    EXPECT_GT(rep.makespan_s, 0.0);
    EXPECT_LE(rep.latency.p50, rep.latency.p95);
    EXPECT_LE(rep.latency.p95, rep.latency.p99);
    EXPECT_LE(rep.latency.p99, rep.latency.max);
    EXPECT_GT(rep.mean_occupancy, 0.0);
    EXPECT_LE(rep.mean_occupancy, 1.0);
    for (const RequestOutcome &o : rep.outcomes) {
        EXPECT_EQ(o.slo_met,
                  o.latency_s() <=
                      q.mix[static_cast<size_t>(o.class_id)]
                          .slo_latency_s);
    }
    ASSERT_EQ(rep.classes.size(), q.mix.size());
    int total = 0;
    for (const ClassOutcome &c : rep.classes) {
        total += c.requests;
        EXPECT_GE(c.solo_latency_s, 0.0);
    }
    EXPECT_EQ(total, q.num_requests);
    // The dense class is its own dense reference: delta == 0.
    EXPECT_EQ(rep.classes[1].accuracyDelta(), 0.0);
}

TEST(ServingSim, FusedTraceBatchMatchesSeam)
{
    EvalOptions opts;
    opts.samples = 1;
    const Evaluator ev("Llava-Vid", "VideoMME", opts);
    const MethodConfig focus = MethodConfig::focusFull();
    const MethodConfig dense = MethodConfig::dense();
    const WorkloadTrace focus_trace =
        ev.buildFullTrace(focus, ev.runFunctional(focus));
    const WorkloadTrace dense_trace =
        ev.buildFullTrace(dense, ev.runFunctional(dense));

    // Singleton batch: bit-identical to the unbatched entry point.
    const RunMetrics solo = ev.simulate(focus, AccelConfig::focus());
    const RunMetrics batch1 = simulateAccelerator(
        AccelConfig::focus(), fuseTraces({&focus_trace}));
    EXPECT_EQ(batch1.cycles, solo.cycles);
    EXPECT_EQ(batch1.energy.total(), solo.energy.total());

    // Two-method batch: per-query quadratic terms sum (never
    // (r1+r2)^2), and shared-weight fusion plus DMA overlap make the
    // fused pass cheaper than back-to-back runs.
    const RunMetrics dense_solo =
        ev.simulate(dense, AccelConfig::focus());
    const RunMetrics fused =
        simulateAccelerator(AccelConfig::focus(),
                            fuseTraces({&focus_trace, &dense_trace}));
    EXPECT_EQ(fused.sfu_ops, solo.sfu_ops + dense_solo.sfu_ops);
    EXPECT_EQ(fused.sec_ops, solo.sec_ops + dense_solo.sec_ops);
    EXPECT_LT(fused.cycles, solo.cycles + dense_solo.cycles);
    EXPECT_LT(fused.dram_weights,
              solo.dram_weights + dense_solo.dram_weights);
}

// ---- long-video profile roster ----

TEST(ServingWorkloads, LongVideoProfileDoublesFrameCount)
{
    const DatasetProfile lv = datasetProfile("MLVU-Long");
    int max_paper_frames = 0;
    int64_t max_paper_tokens = 0;
    for (const std::string &name : videoDatasetNames()) {
        const DatasetProfile p = datasetProfile(name);
        max_paper_frames = std::max(max_paper_frames, p.frames);
        max_paper_tokens =
            std::max(max_paper_tokens, p.full_visual_tokens);
    }
    EXPECT_GE(lv.frames, 2 * max_paper_frames);
    EXPECT_GE(lv.full_visual_tokens, 2 * max_paper_tokens);
    EXPECT_TRUE(lv.isVideo());
}

TEST(ServingWorkloads, ExtendedRosterRegistersLongVideo)
{
    const std::vector<std::string> ext = extendedVideoDatasetNames();
    for (const std::string &name : videoDatasetNames()) {
        EXPECT_NE(std::find(ext.begin(), ext.end(), name), ext.end());
    }
    EXPECT_NE(std::find(ext.begin(), ext.end(), "MLVU-Long"),
              ext.end());
    EXPECT_EQ(ext.size(), videoDatasetNames().size() + 1);
    // Every roster entry resolves to a profile.
    for (const std::string &name : ext) {
        EXPECT_FALSE(datasetProfile(name).name.empty());
    }
}

TEST(ServingWorkloads, StandardMixUsesHeavyTokenRegime)
{
    const std::vector<RequestClass> mix = standardServingMix();
    ASSERT_GE(mix.size(), 3u);
    bool has_long = false;
    for (const RequestClass &c : mix) {
        has_long = has_long || c.dataset == "MLVU-Long";
    }
    EXPECT_TRUE(has_long);
}

// ---- randomized replay invariants ----

/** One random serving config over smallOpenConfig's two classes. */
struct ServeDraw
{
    QueueConfig queue;
    SchedulerConfig sched;
    PrefixCacheConfig cache;
};

/**
 * Draw @p i of the property sweep: the policy cycles through every
 * BatchPolicy and the arrival process alternates every four draws;
 * everything else comes from @p rng.  A nonzero cache budget holds at
 * least one @p slab_bytes slab.
 */
ServeDraw
drawServeConfig(Rng &rng, int i, int64_t slab_bytes)
{
    ServeDraw d;
    d.queue = smallOpenConfig(1 + static_cast<int>(rng.uniformInt(20)));
    d.queue.seed = rng.next();
    if ((i / 4) % 2 == 1) {
        d.queue.process = ArrivalProcess::ClosedLoop;
        d.queue.clients = 1 + static_cast<int>(rng.uniformInt(6));
        d.queue.think_mean_s = rng.uniform(0.0, 60.0);
    } else {
        // 0.01 to 1 request per second: from an idle engine to a
        // deep queue.
        d.queue.arrival_rate_rps = std::pow(10.0, rng.uniform(-2.0, 0.0));
    }
    for (RequestClass &c : d.queue.mix) {
        // Few prefixes, so repeats reach the cache.
        c.prefix_cardinality = 1 + static_cast<int>(rng.uniformInt(4));
    }
    const BatchPolicy policies[] = {BatchPolicy::Single,
                                    BatchPolicy::FixedSize,
                                    BatchPolicy::Timeout,
                                    BatchPolicy::ConcAware};
    d.sched.policy = policies[i % 4];
    d.sched.max_batch = 1 + static_cast<int>(rng.uniformInt(8));
    d.sched.timeout_s = rng.uniform(0.0, 200.0);
    if (rng.bernoulli(0.5)) {
        d.cache.budget_bytes =
            slab_bytes * (1 + static_cast<int64_t>(rng.uniformInt(4)));
    }
    return d;
}

/** Invariants every single-box report must keep. */
void
expectReplayInvariants(const ServingReport &rep, const QueueConfig &q,
                       const SchedulerConfig &sched)
{
    const size_t n = static_cast<size_t>(q.num_requests);
    ASSERT_EQ(rep.outcomes.size(), n);
    std::vector<int> seen(n, 0);
    for (size_t b = 0; b < rep.batches.size(); ++b) {
        const BatchRecord &batch = rep.batches[b];
        ASSERT_FALSE(batch.request_ids.empty());
        EXPECT_LE(batch.request_ids.size(),
                  static_cast<size_t>(sched.max_batch));
        for (const int64_t id : batch.request_ids) {
            ASSERT_GE(id, 0);
            ASSERT_LT(static_cast<size_t>(id), n);
            seen[static_cast<size_t>(id)] += 1;
            const RequestOutcome &o = rep.outcomes[static_cast<size_t>(id)];
            EXPECT_EQ(o.batch_id, static_cast<int>(b));
            EXPECT_EQ(o.batch_size,
                      static_cast<int>(batch.request_ids.size()));
            EXPECT_EQ(o.start_s, batch.start_s);
            EXPECT_EQ(o.finish_s, batch.start_s + batch.service_s);
        }
        EXPECT_GE(batch.start_s, batch.ready_s);
        // One engine: a batch starts once the previous one finished.
        if (b > 0) {
            const BatchRecord &prev = rep.batches[b - 1];
            EXPECT_GE(batch.start_s, prev.start_s + prev.service_s);
        }
    }
    int64_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
        const RequestOutcome &o = rep.outcomes[i];
        EXPECT_EQ(seen[i], 1) << "request " << i;
        EXPECT_EQ(o.id, static_cast<int64_t>(i));
        EXPECT_GE(o.start_s, o.arrival_s);
        hits += o.prefix_hit ? 1 : 0;
    }
    EXPECT_EQ(hits, rep.prefix_cache.hits);
    if (q.process == ArrivalProcess::ClosedLoop) {
        // Client i % clients issues request i + clients only after
        // request i finished.
        const size_t clients = static_cast<size_t>(q.clients);
        for (size_t i = 0; i + clients < n; ++i) {
            EXPECT_GE(rep.outcomes[i + clients].arrival_s,
                      rep.outcomes[i].finish_s);
        }
    }
    EXPECT_LE(rep.latency.p50, rep.latency.p95);
    EXPECT_LE(rep.latency.p95, rep.latency.p99);
    EXPECT_LE(rep.latency.p99, rep.latency.max);
    EXPECT_GE(rep.slo_attainment, 0.0);
    EXPECT_LE(rep.slo_attainment, 1.0);
    EXPECT_GT(rep.mean_occupancy, 0.0);
    EXPECT_LE(rep.mean_occupancy, 1.0);
}

/** Two replays of one config agree on every timeline field. */
void
expectSameReplay(const ServingReport &a, const ServingReport &b)
{
    ASSERT_EQ(a.batches.size(), b.batches.size());
    for (size_t i = 0; i < a.batches.size(); ++i) {
        EXPECT_EQ(a.batches[i].request_ids, b.batches[i].request_ids);
        EXPECT_EQ(a.batches[i].ready_s, b.batches[i].ready_s);
        EXPECT_EQ(a.batches[i].start_s, b.batches[i].start_s);
        EXPECT_EQ(a.batches[i].service_s, b.batches[i].service_s);
    }
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].arrival_s, b.outcomes[i].arrival_s);
        EXPECT_EQ(a.outcomes[i].finish_s, b.outcomes[i].finish_s);
        EXPECT_EQ(a.outcomes[i].prefix_hit, b.outcomes[i].prefix_hit);
    }
    EXPECT_EQ(a.latency.mean, b.latency.mean);
    EXPECT_EQ(a.latency.p99, b.latency.p99);
    EXPECT_EQ(a.slo_attainment, b.slo_attainment);
    EXPECT_EQ(a.mean_occupancy, b.mean_occupancy);
    EXPECT_EQ(a.prefix_cache.hits, b.prefix_cache.hits);
}

TEST(ServingProperty, RandomConfigsKeepReplayInvariants)
{
    // One calibration serves every draw: withQueue carries it (and
    // the batch-cost memo) to each new stream of the same mix.
    ServingSimulator sim(smallOpenConfig(), AccelConfig::focus(),
                         smallEval());
    int64_t slab_bytes = 0;
    for (const int cls : {0, 1}) {
        const SlabSpec spec =
            sim.comboSlabSpec(sim.classCombo(cls), "slab");
        slab_bytes = std::max(slab_bytes, (spec.bytes() + 63) / 64 * 64);
    }
    ThreadPool p1(1), p4(4);
    Rng rng(2512);
    int64_t hits = 0;
    for (int i = 0; i < 40; ++i) {
        const ServeDraw d = drawServeConfig(rng, i, slab_bytes);
        SCOPED_TRACE("draw " + std::to_string(i));
        sim = sim.withQueue(d.queue);
        sim.setPrefixCache(d.cache);
        // Every tenth draw also replays on a copy taken first, which
        // costs the draw's new compositions itself on 4 workers.
        ServingReport wide;
        if (i % 10 == 3) {
            ServingSimulator copy = sim;
            wide = copy.run(d.sched, &p4);
        }
        const ServingReport rep = sim.run(d.sched, &p1);
        expectReplayInvariants(rep, d.queue, d.sched);
        if (i % 10 == 3) {
            expectSameReplay(wide, rep);
        }
        hits += rep.prefix_cache.hits;
    }
    EXPECT_GT(hits, 0); // the sweep exercises the cache
}

} // namespace
} // namespace focus
