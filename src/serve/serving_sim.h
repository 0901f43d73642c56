/**
 * @file
 * End-to-end serving simulation: request stream -> batches -> fused
 * traces -> accelerator timeline -> throughput/latency report.
 *
 * The simulator separates one-time *calibration* from per-policy
 * *replay*:
 *
 *  - calibrate() runs the functional model once per distinct
 *    (model, dataset, method) combo in the mix (plus a dense
 *    reference per (model, dataset) pair for accuracy deltas), fans
 *    the work across the runtime thread pool, and builds each
 *    combo's full-scale trace and batch-of-1 metrics.  Combos are
 *    deduplicated by method *name*: two classes whose methods share
 *    a name share a calibration.
 *  - run(policy) replays the stream under a scheduler policy.
 *    Open-loop plans are a pure function of arrivals, so every
 *    distinct batch composition is fused and simulated across the
 *    pool before a serial timeline pass assigns start/finish times.
 *    Closed-loop replay is a serial event loop (arrivals depend on
 *    completions) over the same composition cache.
 *
 * Determinism: for a fixed QueueConfig seed every report is
 * bit-identical at every thread count — parallel stages write only
 * per-index slots and all reductions run serially in index order.
 * A Single-policy run reproduces Evaluator::simulate bit-exactly for
 * each request (fuseTraces returns singleton traces verbatim).
 */

#ifndef FOCUS_SERVE_SERVING_SIM_H
#define FOCUS_SERVE_SERVING_SIM_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eval/evaluator.h"
#include "serve/batch_scheduler.h"
#include "serve/prefix_cache.h"
#include "serve/request_queue.h"

namespace focus
{

/** Timeline outcome of one request. */
struct RequestOutcome
{
    int64_t id = 0;
    int class_id = 0;
    int batch_id = -1;
    int batch_size = 1;
    double arrival_s = 0.0;
    double start_s = 0.0;
    double finish_s = 0.0;
    bool slo_met = false;
    /**
     * Rejected at admission (cluster overload shedding); a shed
     * request never executes — it is excluded from the latency
     * distribution and counted as an SLO miss.
     */
    bool shed = false;
    /**
     * Served with the prefix-cached trace: the retained visual rows
     * came from the cross-request cache (serve/prefix_cache.h), so
     * this request contributed only its text rows to its batch.
     */
    bool prefix_hit = false;

    double latency_s() const { return finish_s - arrival_s; }
    double queue_s() const { return start_s - arrival_s; }
};

/** One executed batch. */
struct BatchRecord
{
    std::vector<int64_t> request_ids;
    double ready_s = 0.0;
    double start_s = 0.0;
    double service_s = 0.0;
    int replica = 0;    ///< executing replica (0 on a single box)
    RunMetrics metrics; ///< fused-trace accelerator metrics
};

/** Per-class accuracy and latency summary. */
struct ClassOutcome
{
    std::string label;
    int requests = 0;
    int shed = 0;
    double accuracy = 0.0;
    double dense_accuracy = 0.0;
    double mean_latency_s = 0.0;
    double slo_attainment = 0.0;
    /** Batch-of-1 service time of this class (reference). */
    double solo_latency_s = 0.0;
    /** Requests of this class served from the prefix cache. */
    int prefix_hits = 0;

    double accuracyDelta() const { return accuracy - dense_accuracy; }
};

/** Nearest-rank latency statistics. */
struct LatencyStats
{
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/** Full replay result. */
struct ServingReport
{
    std::string policy;
    std::vector<RequestOutcome> outcomes; ///< request-id order
    std::vector<BatchRecord> batches;     ///< execution order
    std::vector<ClassOutcome> classes;    ///< mix order

    double makespan_s = 0.0;
    double throughput_rps = 0.0;
    LatencyStats latency;
    /** Mean executed batch size / max_batch. */
    double mean_occupancy = 0.0;
    /**
     * Fraction of *all* requests that finished within SLO: shed
     * requests count in the denominator as misses (0 shed on a
     * single box, so the historical value is unchanged there).
     */
    double slo_attainment = 0.0;
    int shed = 0;
    /** Activity of the run's prefix cache (all-zero at zero budget). */
    PrefixCacheStats prefix_cache;
};

class ServingSimulator
{
  public:
    ServingSimulator(const QueueConfig &queue, const AccelConfig &accel,
                     const EvalOptions &eval);

    /**
     * One-time functional calibration (idempotent); run() calls it
     * on demand.  Fans combos across @p pool (global when null).
     */
    void calibrate(ThreadPool *pool = nullptr);

    /** Replay the stream under @p sched. */
    ServingReport run(const SchedulerConfig &sched,
                      ThreadPool *pool = nullptr);

    /**
     * A simulator for another stream of the same mix: it replays
     * @p queue on this simulator's calibration, hit traces and
     * composition cache (all functions of the mix, accelerator and
     * evaluation options alone), so it skips the functional pass.
     * Panics unless @p queue's mix has this one's class labels, in
     * order.
     */
    ServingSimulator withQueue(const QueueConfig &queue) const;

    /**
     * Configure the cross-request prefix cache for subsequent run()
     * calls (default: disabled).  Each run() replays against a fresh
     * cache instance, so one simulator can sweep budgets while
     * sharing its calibration and composition caches; a zero budget
     * reproduces the cache-free replay bit for bit.
     */
    void setPrefixCache(const PrefixCacheConfig &cfg) { pcache_ = cfg; }
    const PrefixCacheConfig &prefixCacheConfig() const
    {
        return pcache_;
    }

    /** Batch-of-1 metrics of a mix class (calibrates on demand). */
    const RunMetrics &classSolo(int class_id);

    /**
     * Batch-of-1 metrics of a mix class served as a prefix-cache
     * *hit* (builds the hit traces on demand) — the per-class
     * latency-saving reference quoted by bench_serving.
     */
    const RunMetrics &classHitSolo(int class_id);

    const QueueConfig &queueConfig() const { return queue_; }
    const AccelConfig &accelConfig() const { return accel_; }

    // ---- building blocks shared with the cluster layer ----
    // (serve/cluster.h routes sub-streams of the same arrival trace
    // to replicas and replays each through these, so a cluster of one
    // replica is bit-identical to run() by construction.)

    /**
     * Open-loop replay of @p stream — any arrival-sorted subset of
     * the generated stream — under @p scheduler.  Fuses and costs
     * every distinct batch composition across @p pool, then assigns
     * start/finish times in a serial FIFO timeline starting at
     * t = 0.  @p outcomes and @p batches are overwritten, indexed by
     * position in @p stream / execution order.  Calibrates on demand.
     *
     * When @p cache is non-null and enabled, a serial pre-pass walks
     * the planned batches in execution order through
     * resolvePrefixCache; hits swap in the combo's prefix-cached
     * trace.  Batch *membership* is identical either way — plans key
     * on the base trace, so a run with an enabled cache differs only
     * in what each batch costs.
     */
    void replayOpenLoop(const BatchScheduler &scheduler,
                        const std::vector<ServeRequest> &stream,
                        ThreadPool *pool,
                        std::vector<RequestOutcome> &outcomes,
                        std::vector<BatchRecord> &batches,
                        PrefixCache *cache = nullptr);

    /** Batching keys (model id, retained rows) for @p stream. */
    std::vector<BatchKey>
    batchKeys(const std::vector<ServeRequest> &stream);

    /** Mix class -> calibrated combo index (calibrates on demand). */
    size_t classCombo(int class_id);

    /** Full-scale trace of a calibrated combo. */
    const WorkloadTrace &comboTrace(size_t combo) const;

    /**
     * Composition code of one request: a combo id tagged with its
     * prefix-cache outcome.  Compositions are sequences of codes, so
     * the memoized batch cost distinguishes hit and miss variants of
     * the same combo; a miss code equals the historical plain combo
     * path bit for bit.
     */
    static size_t comboCode(size_t combo, bool hit)
    {
        return combo * 2 + (hit ? 1 : 0);
    }

    /** Combo id behind a composition code (inverse of comboCode). */
    static size_t codeCombo(size_t code) { return code >> 1; }

    /** Trace behind a composition code (hit or base variant). */
    const WorkloadTrace &codeTrace(size_t code) const;

    /**
     * Fused metrics of a batch composition (sequence of composition
     * codes in member order), memoized in the process-lifetime cache
     * shared with run().
     */
    const RunMetrics &costComposition(const std::vector<size_t> &comp);

    /** Slab geometry of one combo's retained prefix, keyed payload. */
    SlabSpec comboSlabSpec(size_t combo, const std::string &key) const;

    /**
     * The prefix-cache batch protocol, shared by every replay path so
     * a cluster of one replica reproduces the single box's hit
     * stream: look up every member of one batch first (same-key
     * members share the miss), then admit each distinct missed key
     * once, in first-occurrence order.  @p members are positions into
     * @p stream; @p codes holds each request's composition code, a
     * miss code on entry.  A hit turns the member's code into its hit
     * code and sets its outcome's prefix_hit.
     */
    void resolvePrefixCache(PrefixCache &cache,
                            const std::vector<ServeRequest> &stream,
                            const std::vector<size_t> &members,
                            std::vector<size_t> &codes,
                            std::vector<RequestOutcome> &outcomes) const;

    /**
     * Append one executed batch to @p batches and stamp its members'
     * outcomes (@p members are positions into @p stream); returns the
     * finish time start + @p service.  @p service is @p m's latency,
     * or more under continuous batching, which serializes the previous
     * batch's residual tail ahead of the batch's own cost.
     */
    static double recordBatch(const std::vector<ServeRequest> &stream,
                              std::vector<RequestOutcome> &outcomes,
                              std::vector<BatchRecord> &batches,
                              const std::vector<size_t> &members,
                              double ready, double start,
                              double service, const RunMetrics &m);

    /**
     * Build each combo's prefix-cached trace + solo metrics
     * (idempotent; fans across @p pool; calibrates on demand).
     * Deferred off the calibration path so cache-disabled runs do no
     * hit-trace work; replays with an enabled cache call it first,
     * and the cluster layer must before costing hit codes itself.
     */
    void ensureHitTraces(ThreadPool *pool);

    /**
     * Aggregate a report over @p stream: @p outcomes is positional
     * (outcomes[i] describes stream[i]); shed outcomes are excluded
     * from the latency distribution and counted as SLO misses.
     */
    ServingReport assemble(const SchedulerConfig &sched,
                           const std::vector<ServeRequest> &stream,
                           std::vector<RequestOutcome> outcomes,
                           std::vector<BatchRecord> batches) const;

  private:
    /** Calibrated (model, dataset, method) combo. */
    struct Combo
    {
        std::string model;
        std::string dataset;
        MethodConfig method;
        int model_id = 0;
        MethodEval eval;
        WorkloadTrace trace;
        RunMetrics solo;
        /** Prefix-cache-hit variants (built by ensureHitTraces). */
        WorkloadTrace hit_trace;
        RunMetrics hit_solo;
    };

    size_t internCombo(const std::string &model,
                       const std::string &dataset,
                       const MethodConfig &method);
    const Evaluator &evaluatorFor(const std::string &model,
                                  const std::string &dataset);

    QueueConfig queue_;
    AccelConfig accel_;
    EvalOptions eval_;
    PrefixCacheConfig pcache_;
    bool calibrated_ = false;
    bool hit_traces_ready_ = false;

    /** Shared with the copies withQueue() makes. */
    std::map<std::pair<std::string, std::string>,
             std::shared_ptr<const Evaluator>>
        evaluators_;
    std::vector<Combo> combos_;
    std::map<std::string, size_t> combo_index_;
    std::vector<size_t> class_combo_; ///< mix class -> combo
    std::vector<size_t> class_dense_; ///< mix class -> dense reference

    /** Fused metrics per batch composition (code sequence). */
    std::map<std::vector<size_t>, RunMetrics> batch_cache_;
};

} // namespace focus

#endif // FOCUS_SERVE_SERVING_SIM_H
