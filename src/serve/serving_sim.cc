#include "serve/serving_sim.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>

#include "common/logging.h"
#include "eval/experiment.h"
#include "obs/trace_span.h"
#include "runtime/thread_pool.h"

namespace focus
{

ServingSimulator::ServingSimulator(const QueueConfig &queue,
                                   const AccelConfig &accel,
                                   const EvalOptions &eval)
    : queue_(queue), accel_(accel), eval_(eval)
{
    // Validate the arrival configuration up front (fatal on errors).
    RequestQueue probe(queue_);
    (void)probe;
}

size_t
ServingSimulator::internCombo(const std::string &model,
                              const std::string &dataset,
                              const MethodConfig &method)
{
    // Combos deduplicate by method *name* (see file header): two mix
    // classes whose methods print the same name share a calibration.
    const std::string key = model + "\n" + dataset + "\n" +
        method.name();
    const auto it = combo_index_.find(key);
    if (it != combo_index_.end()) {
        return it->second;
    }
    Combo c;
    c.model = model;
    c.dataset = dataset;
    c.method = method;
    combos_.push_back(std::move(c));
    combo_index_.emplace(key, combos_.size() - 1);
    return combos_.size() - 1;
}

ServingSimulator
ServingSimulator::withQueue(const QueueConfig &queue) const
{
    bool same_mix = queue.mix.size() == queue_.mix.size();
    for (size_t c = 0; same_mix && c < queue.mix.size(); ++c) {
        same_mix = queue.mix[c].label() == queue_.mix[c].label();
    }
    if (!same_mix) {
        panic("ServingSimulator::withQueue: the new stream's mix must "
              "have the calibrated mix's class labels, in order");
    }
    RequestQueue probe(queue); // validate, as the constructor does
    (void)probe;
    ServingSimulator sim(*this);
    sim.queue_ = queue;
    return sim;
}

void
ServingSimulator::calibrate(ThreadPool *pool)
{
    if (calibrated_) {
        return;
    }
    obs::TraceSpan span("serve.calibrate");

    class_combo_.clear();
    class_dense_.clear();
    for (const RequestClass &c : queue_.mix) {
        class_combo_.push_back(
            internCombo(c.model, c.dataset, c.method));
    }
    // Dense reference per class for the accuracy-delta report; a
    // dense class aliases its own combo.
    for (const RequestClass &c : queue_.mix) {
        class_dense_.push_back(
            internCombo(c.model, c.dataset, MethodConfig::dense()));
    }

    // One grid cell per combo on this simulator's accelerator.  The
    // grid builds each (model, dataset) pair's Evaluator once, in
    // first-use order, fans the cells across the pool (per-sample
    // parallelism nests on it) and frees the Evaluators on return.
    ExperimentGrid grid(eval_);
    std::vector<std::string> model_names;
    for (Combo &c : combos_) {
        ExperimentCell cell(c.model, c.dataset, c.method, accel_);
        cell.keep_trace = true;
        grid.add(cell);
        const auto it = std::find(model_names.begin(),
                                  model_names.end(), c.model);
        c.model_id = static_cast<int>(it - model_names.begin());
        if (it == model_names.end()) {
            model_names.push_back(c.model);
        }
    }
    std::vector<ExperimentResult> results =
        grid.run(pool ? *pool : ThreadPool::global());
    for (size_t i = 0; i < combos_.size(); ++i) {
        combos_[i].eval = std::move(results[i].eval);
        combos_[i].trace = std::move(results[i].trace);
        combos_[i].solo = std::move(results[i].metrics);
    }
    calibrated_ = true;
}

void
ServingSimulator::ensureHitTraces(ThreadPool *pool)
{
    calibrate(pool);
    if (hit_traces_ready_) {
        return;
    }
    obs::TraceSpan span("serve.hit_traces");
    ThreadPool &p = pool ? *pool : ThreadPool::global();
    p.parallelFor(
        static_cast<int64_t>(combos_.size()), [&](int64_t i) {
            Combo &c = combos_[static_cast<size_t>(i)];
            c.hit_trace = applyPrefixCache(c.trace);
            c.hit_solo = simulateAccelerator(accel_, c.hit_trace);
        });
    hit_traces_ready_ = true;
}

const RunMetrics &
ServingSimulator::classSolo(int class_id)
{
    return combos_[classCombo(class_id)].solo;
}

const RunMetrics &
ServingSimulator::classHitSolo(int class_id)
{
    ensureHitTraces(nullptr);
    return combos_[classCombo(class_id)].hit_solo;
}

size_t
ServingSimulator::classCombo(int class_id)
{
    calibrate();
    if (class_id < 0 ||
        static_cast<size_t>(class_id) >= class_combo_.size()) {
        panic("ServingSimulator::classCombo: class %d out of range",
              class_id);
    }
    return class_combo_[static_cast<size_t>(class_id)];
}

const WorkloadTrace &
ServingSimulator::codeTrace(size_t code) const
{
    const size_t combo = codeCombo(code);
    if (combo >= combos_.size()) {
        panic("ServingSimulator::codeTrace: code %zu out of range",
              code);
    }
    if ((code & 1) != 0) {
        if (!hit_traces_ready_) {
            panic("ServingSimulator::codeTrace: hit trace requested "
                  "before ensureHitTraces");
        }
        return combos_[combo].hit_trace;
    }
    return combos_[combo].trace;
}

SlabSpec
ServingSimulator::comboSlabSpec(size_t combo,
                                const std::string &key) const
{
    if (combo >= combos_.size()) {
        panic("ServingSimulator::comboSlabSpec: combo %zu out of "
              "range", combo);
    }
    const WorkloadTrace &tr = combos_[combo].trace;
    int64_t visual = 0;
    for (const LayerEvents &l : tr.layers) {
        visual += l.visual_in;
    }
    // The slab payload is a fixed 1/4096 reduced-scale mirror of
    // the full retained K/V set: rows shrink 64x and the 2*hidden
    // K+V columns shrink 64x (to 16-bit values).
    SlabSpec spec;
    spec.rows = (visual + 63) / 64;
    spec.cols = 2 * ((tr.hidden + 63) / 64);
    spec.seed = prefixKeyHash(key);
    return spec;
}

void
ServingSimulator::resolvePrefixCache(
    PrefixCache &cache, const std::vector<ServeRequest> &stream,
    const std::vector<size_t> &members, std::vector<size_t> &codes,
    std::vector<RequestOutcome> &outcomes) const
{
    std::vector<size_t> missed;
    for (const size_t i : members) {
        const RequestClass &cls =
            queue_.mix[static_cast<size_t>(stream[i].class_id)];
        if (cache.lookup(prefixKey(stream[i], cls))) {
            outcomes[i].prefix_hit = true;
            codes[i] = comboCode(codeCombo(codes[i]), true);
        } else {
            missed.push_back(i);
        }
    }
    std::vector<std::string> admitted;
    for (const size_t i : missed) {
        const RequestClass &cls =
            queue_.mix[static_cast<size_t>(stream[i].class_id)];
        const std::string key = prefixKey(stream[i], cls);
        if (std::find(admitted.begin(), admitted.end(), key) ==
            admitted.end()) {
            admitted.push_back(key);
            cache.admit(key, comboSlabSpec(codeCombo(codes[i]), key));
        }
    }
}

double
ServingSimulator::recordBatch(const std::vector<ServeRequest> &stream,
                              std::vector<RequestOutcome> &outcomes,
                              std::vector<BatchRecord> &batches,
                              const std::vector<size_t> &members,
                              double ready, double start,
                              double service,
                              std::shared_ptr<const RunMetrics> m)
{
    BatchRecord rec;
    rec.ready_s = ready;
    rec.start_s = start;
    rec.service_s = service;
    rec.metrics = std::move(m);
    const int batch_id = static_cast<int>(batches.size());
    for (const size_t i : members) {
        rec.request_ids.push_back(stream[i].id);
        RequestOutcome &o = outcomes[i];
        o.id = stream[i].id;
        o.class_id = stream[i].class_id;
        o.batch_id = batch_id;
        o.batch_size = static_cast<int>(members.size());
        o.start_s = start;
        o.finish_s = start + service;
    }
    batches.push_back(std::move(rec));
    return start + service;
}

std::vector<BatchKey>
ServingSimulator::batchKeys(const std::vector<ServeRequest> &stream)
{
    calibrate();
    std::vector<BatchKey> keys(stream.size());
    for (size_t i = 0; i < stream.size(); ++i) {
        const size_t combo = classCombo(stream[i].class_id);
        keys[i] = BatchKey{combos_[combo].model_id,
                           combos_[combo].trace.retainedRows()};
    }
    return keys;
}

std::vector<const WorkloadTrace *>
ServingSimulator::compositionTraces(const std::vector<size_t> &comp) const
{
    std::vector<const WorkloadTrace *> parts;
    parts.reserve(comp.size());
    for (const size_t code : comp) {
        parts.push_back(&codeTrace(code));
    }
    return parts;
}

ServingSimulator::BatchCost
ServingSimulator::simulateBatch(const std::vector<size_t> &comp,
                                int tp) const
{
    // Service time is the slowest shard's (the first on ties); an
    // unsplit engine is its one shard, the fused trace itself.
    BatchCost cost;
    double worst = -1.0;
    for (const WorkloadTrace &shard : splitTensorParallel(
             fuseTraces(compositionTraces(comp)), tp)) {
        RunMetrics rm = simulateAccelerator(accel_, shard);
        cost.interconnect_bytes += rm.interconnect_bytes;
        if (rm.seconds() > worst) {
            worst = rm.seconds();
            cost.metrics =
                std::make_shared<const RunMetrics>(std::move(rm));
        }
    }
    return cost;
}

const ServingSimulator::BatchCost &
ServingSimulator::batchCost(const std::vector<size_t> &comp, int tp)
{
    auto key = std::make_pair(tp, comp);
    const auto it = batch_cache_.find(key);
    if (it != batch_cache_.end()) {
        return it->second;
    }
    BatchCost cost = simulateBatch(comp, tp);
    return batch_cache_.emplace(std::move(key), std::move(cost))
        .first->second;
}

const RunMetrics &
ServingSimulator::costComposition(const std::vector<size_t> &comp,
                                  int tp)
{
    return *batchCost(comp, tp).metrics;
}

namespace
{

/** Nearest-rank percentile of an ascending-sorted series. */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty()) {
        return 0.0;
    }
    const double rank =
        std::ceil(q * static_cast<double>(sorted.size()));
    const size_t idx = static_cast<size_t>(
        std::max(0.0, rank - 1.0));
    return sorted[std::min(idx, sorted.size() - 1)];
}

/** Where a batch frees most of the array under continuous batching. */
struct Knee
{
    double knee_s = 0.0;    ///< array mostly free after this
    double tail_frac = 0.0; ///< mean active fraction past the knee
};

/**
 * Continuous-batching knee of a batch of @p parts whose critical
 * engine has metrics @p m and service time @p service_s: the first
 * layer whose active rows have shrunk to @p theta * layer-0 rows.
 * The knee time scales the service by the critical engine's cycle
 * prefix; the tail fraction is the mean active share past the knee
 * (the residual array occupancy the next batch serializes behind).
 * A batch's rows per layer are its parts' rows summed, exactly the
 * rows fuseTraces concatenates.
 */
Knee
batchKnee(const std::vector<const WorkloadTrace *> &parts,
          const RunMetrics &m, double service_s, double theta)
{
    Knee k;
    k.knee_s = service_s;
    if (m.layer_cycles.empty()) {
        return k;
    }
    const size_t L = parts.front()->layers.size();
    std::vector<int64_t> rows(L, 0);
    for (const WorkloadTrace *p : parts) {
        for (size_t l = 0; l < L; ++l) {
            rows[l] += p->layers[l].rowsIn();
        }
    }
    const double rows0 = static_cast<double>(rows.front());
    size_t knee = L;
    for (size_t l = 0; l < L; ++l) {
        if (static_cast<double>(rows[l]) <= theta * rows0) {
            knee = l;
            break;
        }
    }
    if (knee < L && rows0 > 0.0) {
        uint64_t prefix = 0, total = 0;
        for (size_t l = 0; l < m.layer_cycles.size(); ++l) {
            total += m.layer_cycles[l];
            if (l < knee) {
                prefix += m.layer_cycles[l];
            }
        }
        if (total > 0) {
            k.knee_s = service_s *
                (static_cast<double>(prefix) /
                 static_cast<double>(total));
            double frac_sum = 0.0;
            for (size_t l = knee; l < L; ++l) {
                frac_sum += std::min(
                    1.0, static_cast<double>(rows[l]) / rows0);
            }
            k.tail_frac = frac_sum / static_cast<double>(L - knee);
        }
    }
    return k;
}

} // namespace

uint64_t
ServingSimulator::replay(const BatchScheduler &scheduler,
                         const std::vector<ServeRequest> &stream,
                         ThreadPool *pool,
                         std::vector<RequestOutcome> &outcomes,
                         std::vector<BatchRecord> &batches,
                         PrefixCache *cache, int tp, double theta)
{
    calibrate(pool);
    const bool caching = cache != nullptr && cache->enabled();
    if (caching) {
        ensureHitTraces(pool);
    }
    obs::TraceSpan span("serve.replay");
    const size_t n = stream.size();
    outcomes.assign(n, RequestOutcome{});
    batches.clear();

    const std::vector<BatchKey> keys = batchKeys(stream);
    std::vector<size_t> req_code(n);
    for (size_t i = 0; i < n; ++i) {
        req_code[i] = comboCode(classCombo(stream[i].class_id), false);
    }
    const auto compOf = [&](const std::vector<size_t> &members) {
        std::vector<size_t> comp;
        comp.reserve(members.size());
        for (const size_t i : members) {
            comp.push_back(req_code[i]);
        }
        return comp;
    };
    uint64_t interconnect_bytes = 0;

    const bool closed = queue_.process == ArrivalProcess::ClosedLoop;
    if (closed || theta > 0.0) {
        // Pick-time batching: each batch forms from whatever is
        // pending when the engine releases, so the cache resolves
        // there too.  Requests not yet pending wait in a min-heap of
        // (arrival, stream index).  An open-loop stream enters whole;
        // a closed loop starts with each client's first request at
        // its think time, and request i's finish issues request
        // i + clients think_s later.
        using Arrival = std::pair<double, size_t>;
        std::priority_queue<Arrival, std::vector<Arrival>,
                            std::greater<Arrival>>
            arrivals;
        const size_t clients =
            closed ? static_cast<size_t>(queue_.clients) : n;
        for (size_t i = 0; i < std::min(clients, n); ++i) {
            arrivals.push(
                {closed ? stream[i].think_s : stream[i].arrival_s, i});
        }
        // Under continuous batching (theta > 0) the engine releases
        // at the previous batch's knee, and the next batch serializes
        // its residual tail occupancy (which drains linearly between
        // knee and finish) ahead of its own service.  Otherwise the
        // knee is the finish and no tail carries over.
        std::vector<size_t> pending;
        double release_t = 0.0;
        double knee_abs = 0.0, finish_abs = 0.0, tail_work = 0.0;
        size_t done = 0;
        while (done < n) {
            double t = release_t;
            if (pending.empty()) {
                if (arrivals.empty()) {
                    panic("ServingSimulator: closed loop starved "
                          "with %zu/%zu requests done", done, n);
                }
                t = std::max(t, arrivals.top().first);
            }
            while (!arrivals.empty() && arrivals.top().first <= t) {
                outcomes[arrivals.top().second].arrival_s =
                    arrivals.top().first;
                pending.push_back(arrivals.top().second);
                arrivals.pop();
            }
            obs::TraceSpan step_span("serve.replay.pick");
            const std::vector<size_t> picked =
                scheduler.pickPending(pending, keys);
            if (caching) {
                resolvePrefixCache(*cache, stream, picked, req_code,
                                   outcomes);
            }
            const std::vector<size_t> comp = compOf(picked);
            const BatchCost &cost = batchCost(comp, tp);
            const double own_s = cost.metrics->seconds();
            const Knee knee = theta > 0.0
                ? batchKnee(compositionTraces(comp), *cost.metrics,
                            own_s, theta)
                : Knee{own_s, 0.0};

            double carry = 0.0;
            if (finish_abs > knee_abs && t < finish_abs) {
                carry = tail_work * (finish_abs - t) /
                    (finish_abs - knee_abs);
            }
            const double finish =
                recordBatch(stream, outcomes, batches, picked, t, t,
                            carry + own_s, cost.metrics);
            interconnect_bytes += cost.interconnect_bytes;

            release_t = t + carry + knee.knee_s;
            knee_abs = release_t;
            finish_abs = finish;
            tail_work = (own_s - knee.knee_s) * knee.tail_frac;

            for (const size_t i : picked) {
                pending.erase(
                    std::find(pending.begin(), pending.end(), i));
                if (closed && i + clients < n) {
                    arrivals.push(
                        {finish + stream[i + clients].think_s,
                         i + clients});
                }
            }
            done += picked.size();
        }
        return interconnect_bytes;
    }

    // Serial batch boundaries.  Plans key on the *base* trace even
    // when caching: batch membership must not depend on cache state,
    // so an enabled cache changes what a batch costs but never which
    // batches form.
    for (size_t i = 0; i < n; ++i) {
        outcomes[i].arrival_s = stream[i].arrival_s;
    }
    const std::vector<PlannedBatch> plans =
        scheduler.planOpenLoop(stream, keys);

    // Serial cache pre-pass in execution order.  Serial by design —
    // the hit/miss stream (and the obs work counters behind it) must
    // be identical at every thread count.
    if (caching) {
        for (const PlannedBatch &plan : plans) {
            resolvePrefixCache(*cache, stream, plan.members, req_code,
                               outcomes);
        }
    }

    // Cost every distinct composition not yet memoized across the
    // pool; the timeline pass below then only reads the memo.
    std::vector<std::vector<size_t>> comps(plans.size());
    std::vector<std::vector<size_t>> todo;
    for (size_t b = 0; b < plans.size(); ++b) {
        comps[b] = compOf(plans[b].members);
        if (batch_cache_.find(std::make_pair(tp, comps[b])) ==
                batch_cache_.end() &&
            std::find(todo.begin(), todo.end(), comps[b]) ==
                todo.end()) {
            todo.push_back(comps[b]);
        }
    }
    std::vector<BatchCost> slots(todo.size());
    ThreadPool &p = pool ? *pool : ThreadPool::global();
    p.parallelFor(
        static_cast<int64_t>(todo.size()), [&](int64_t t) {
            slots[static_cast<size_t>(t)] =
                simulateBatch(todo[static_cast<size_t>(t)], tp);
        });
    for (size_t t = 0; t < todo.size(); ++t) {
        batch_cache_.emplace(std::make_pair(tp, std::move(todo[t])),
                             std::move(slots[t]));
    }

    double free_t = 0.0;
    for (size_t b = 0; b < plans.size(); ++b) {
        const BatchCost &cost = batchCost(comps[b], tp);
        const double start = std::max(free_t, plans[b].ready_s);
        free_t = recordBatch(stream, outcomes, batches,
                             plans[b].members, plans[b].ready_s, start,
                             cost.metrics->seconds(), cost.metrics);
        interconnect_bytes += cost.interconnect_bytes;
    }
    return interconnect_bytes;
}

ServingReport
ServingSimulator::run(const SchedulerConfig &sched, ThreadPool *pool)
{
    obs::TraceSpan span("serve.run");
    const BatchScheduler scheduler(sched);
    // Fresh cache per replay: runs never see each other's residency,
    // so budget sweeps on one simulator stay order-independent.
    PrefixCache cache(pcache_);
    const std::vector<ServeRequest> stream =
        RequestQueue(queue_).generate();
    std::vector<RequestOutcome> outcomes;
    std::vector<BatchRecord> batches;
    replay(scheduler, stream, pool, outcomes, batches, &cache, 1, 0.0);

    ServingReport rep = assemble(sched, stream, std::move(outcomes),
                                 std::move(batches));
    rep.prefix_cache = cache.stats();
    return rep;
}

ServingReport
ServingSimulator::assemble(const SchedulerConfig &sched,
                           const std::vector<ServeRequest> &stream,
                           std::vector<RequestOutcome> outcomes,
                           std::vector<BatchRecord> batches) const
{
    ServingReport rep;
    rep.policy = batchPolicyName(sched.policy);
    rep.outcomes = std::move(outcomes);
    rep.batches = std::move(batches);
    if (rep.outcomes.size() != stream.size()) {
        panic("ServingSimulator::assemble: %zu outcomes for %zu "
              "requests", rep.outcomes.size(), stream.size());
    }

    // Outcomes are positional: outcomes[i] describes stream[i] (the
    // stream may be a routed sub-stream whose ids are not 0..n-1).
    std::vector<double> lat;
    lat.reserve(rep.outcomes.size());
    double lat_sum = 0.0;
    size_t slo_ok = 0;
    for (size_t i = 0; i < rep.outcomes.size(); ++i) {
        RequestOutcome &o = rep.outcomes[i];
        if (o.shed) {
            rep.shed += 1;
            continue;
        }
        o.slo_met = o.latency_s() <= stream[i].slo_latency_s;
        lat.push_back(o.latency_s());
        lat_sum += o.latency_s();
        slo_ok += o.slo_met ? 1 : 0;
        rep.makespan_s = std::max(rep.makespan_s, o.finish_s);
    }
    std::sort(lat.begin(), lat.end());
    if (!lat.empty()) {
        rep.latency.mean =
            lat_sum / static_cast<double>(lat.size());
        rep.latency.p50 = percentile(lat, 0.50);
        rep.latency.p95 = percentile(lat, 0.95);
        rep.latency.p99 = percentile(lat, 0.99);
        rep.latency.max = lat.back();
        // Shed requests never meet their SLO: they stay in the
        // attainment denominator (identical to the historical value
        // when nothing is shed).
        rep.slo_attainment = static_cast<double>(slo_ok) /
            static_cast<double>(rep.outcomes.size());
        rep.throughput_rps = rep.makespan_s > 0.0
            ? static_cast<double>(lat.size()) / rep.makespan_s
            : 0.0;
    }

    if (!rep.batches.empty()) {
        double occ = 0.0;
        for (const BatchRecord &b : rep.batches) {
            occ += static_cast<double>(b.request_ids.size()) /
                static_cast<double>(sched.max_batch);
        }
        rep.mean_occupancy =
            occ / static_cast<double>(rep.batches.size());
    }

    // assemble() runs serially after the replay, so totals recorded
    // here are trivially thread-count invariant (work counters); the
    // replay timeline itself is deterministic by construction.
    if (obs::countersEnabled()) {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
        static obs::Counter &requests =
            reg.counter("serve.requests");
        static obs::Counter &shed = reg.counter("serve.shed");
        static obs::Counter &batch_total =
            reg.counter("serve.batches");
        requests.add(rep.outcomes.size());
        shed.add(static_cast<uint64_t>(rep.shed));
        batch_total.add(rep.batches.size());
        reg.gauge("serve.mean_occupancy_permille")
            .set(static_cast<int64_t>(rep.mean_occupancy * 1000.0));
    }

    for (size_t cls = 0; cls < queue_.mix.size(); ++cls) {
        ClassOutcome co;
        co.label = queue_.mix[cls].label();
        co.accuracy = combos_[class_combo_[cls]].eval.accuracy;
        co.dense_accuracy =
            combos_[class_dense_[cls]].eval.accuracy;
        co.solo_latency_s = combos_[class_combo_[cls]].solo.seconds();
        double cls_lat = 0.0;
        size_t cls_slo = 0;
        int cls_done = 0;
        for (const RequestOutcome &o : rep.outcomes) {
            if (o.class_id != static_cast<int>(cls)) {
                continue;
            }
            co.requests += 1;
            if (o.shed) {
                co.shed += 1;
                continue;
            }
            if (o.prefix_hit) {
                co.prefix_hits += 1;
            }
            cls_done += 1;
            cls_lat += o.latency_s();
            cls_slo += o.slo_met ? 1 : 0;
        }
        if (cls_done > 0) {
            co.mean_latency_s =
                cls_lat / static_cast<double>(cls_done);
        }
        if (co.requests > 0) {
            co.slo_attainment = static_cast<double>(cls_slo) /
                static_cast<double>(co.requests);
        }
        if (obs::countersEnabled()) {
            // Power-of-4 latency ladder from 1 ms to 256 s; bounds
            // are fixed so every run of a class shares one histogram.
            static const std::vector<double> kLatencyBounds = {
                0.001, 0.004, 0.016, 0.064, 0.25, 1.0, 4.0, 16.0,
                64.0, 256.0};
            obs::Histogram &h =
                obs::MetricsRegistry::instance().histogram(
                    "serve.class." + co.label + ".latency_s",
                    kLatencyBounds);
            for (const RequestOutcome &o : rep.outcomes) {
                if (o.class_id == static_cast<int>(cls) && !o.shed) {
                    h.observe(o.latency_s());
                }
            }
        }
        rep.classes.push_back(std::move(co));
    }
    return rep;
}

} // namespace focus
