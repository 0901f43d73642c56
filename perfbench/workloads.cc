#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <utility>

#include "eval/evaluator.h"
#include "runtime/thread_pool.h"
#include "serve/cluster.h"
#include "sim/accel_model.h"
#include "sim/trace.h"
#include "tensor/kernels.h"
#include "workload/profiles.h"

using namespace focus;

namespace perfbench
{

namespace
{

// ---- rosters ------------------------------------------------------

constexpr int kMethods = 4;
// Span names must outlive the log, hence literal tables per method.
const char *const kMethodTag[kMethods] = {"dense", "adaptiv", "cmc",
                                          "focus"};
const char *const kSimSpan[kMethods] = {
    "sim.simulate.sa", "sim.simulate.adaptiv", "sim.simulate.cmc",
    "sim.simulate.focus"};
const char *const kForwardSpan[kMethods] = {
    "vlm.forward.dense", "vlm.forward.adaptiv", "vlm.forward.cmc",
    "vlm.forward.focus"};
constexpr int kFocusMethod = 3;

/** One grid cell: a (model, dataset) pair under one method. */
struct Cell
{
    std::string model;
    std::string dataset;
    MethodConfig method;
    AccelConfig accel;
    int method_id = 0; ///< index into the kMethod* tables
};

/**
 * {Dense on SA, AdapTiV, CMC, Focus} over every (model, dataset)
 * pair, pair-major.  Single-frame rosters restrict the SIC window
 * temporally, as Tbl. V does.
 */
std::vector<Cell>
rosterCells(const std::vector<std::pair<std::string, std::string>> &pairs,
            bool single_frame)
{
    MethodConfig focus_method = MethodConfig::focusFull();
    if (single_frame) {
        focus_method.focus.sic.block_f = 1;
    }
    const std::pair<MethodConfig, AccelConfig> methods[kMethods] = {
        {MethodConfig::dense(), AccelConfig::systolicArray()},
        {MethodConfig::adaptivBaseline(), AccelConfig::adaptiv()},
        {MethodConfig::cmcBaseline(), AccelConfig::cmc()},
        {focus_method, AccelConfig::focus()},
    };
    std::vector<Cell> cells;
    for (const auto &pair : pairs) {
        for (int m = 0; m < kMethods; ++m) {
            cells.push_back({pair.first, pair.second, methods[m].first,
                             methods[m].second, m});
        }
    }
    return cells;
}

std::vector<std::pair<std::string, std::string>>
crossPairs(const std::vector<std::string> &models,
           const std::vector<std::string> &datasets)
{
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const std::string &m : models) {
        for (const std::string &d : datasets) {
            pairs.emplace_back(m, d);
        }
    }
    return pairs;
}

std::vector<Cell>
gridCells(Workload w)
{
    if (w == Workload::VideoGrid) {
        return rosterCells(
            crossPairs(videoModelNames(), videoDatasetNames()), false);
    }
    return rosterCells(crossPairs({"Llava-OV", "Qwen2.5-VL"},
                                  imageDatasetNames()),
                       true);
}

int
gridSamples(Workload w)
{
    return w == Workload::VideoGrid ? 5 : 32;
}

// ---- fleet configuration -----------------------------------------

// The serving mix's replay: 128 requests, not a full 512-request
// stream, because every BatchRecord copies its fused batch's tile log
// and a 512-request replay allocates about 2 GB.
constexpr int kFleetRequests = 128;
constexpr double kFleetRate = 0.25;
constexpr int kFleetReplicas = 8;
constexpr int kFleetSlabs = 16;
constexpr int kFleetCalibrationSamples = 2;

QueueConfig
fleetQueue(uint64_t seed, int requests)
{
    QueueConfig q;
    q.process = ArrivalProcess::OpenPoisson;
    q.arrival_rate_rps = kFleetRate;
    q.num_requests = requests;
    q.seed = seed;
    q.mix = standardServingMix();
    return q;
}

SchedulerConfig
fleetScheduler()
{
    SchedulerConfig s;
    s.policy = BatchPolicy::Timeout;
    s.max_batch = 8;
    s.timeout_s = 120.0;
    return s;
}

ClusterConfig
fleetCluster(ServingSimulator &sim)
{
    ClusterConfig cfg;
    cfg.replicas = kFleetReplicas;
    cfg.routing = RoutingPolicy::HashRing;
    cfg.prefix_cache.budget_bytes = kFleetSlabs *
        sim.comboSlabSpec(sim.classCombo(0), "slab").bytes();
    return cfg;
}

EvalOptions
evalOptions(int samples, uint64_t seed)
{
    EvalOptions opts;
    opts.samples = samples;
    opts.seed = seed;
    return opts;
}

// ---- output check -------------------------------------------------

/** FNV-1a over the bit patterns of the checked values. */
class Digest
{
  public:
    void
    add(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string
format(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

std::string
format(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v) {
        s += x;
    }
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// ---- grids --------------------------------------------------------

/**
 * One Evaluator per (model, dataset) pair in first-use order, as
 * ExperimentGrid builds them; @p pair_of maps cell -> evaluator.
 */
void
buildEvaluators(const std::vector<Cell> &cells, const EvalOptions &opts,
                SpanLog &log,
                std::vector<std::unique_ptr<Evaluator>> &evs,
                std::vector<size_t> &pair_of)
{
    std::map<std::pair<std::string, std::string>, size_t> index;
    for (const Cell &c : cells) {
        const auto key = std::make_pair(c.model, c.dataset);
        auto it = index.find(key);
        if (it == index.end()) {
            Scope span(log, "eval.construct");
            evs.push_back(
                std::make_unique<Evaluator>(c.model, c.dataset, opts));
            it = index.emplace(key, evs.size() - 1).first;
        }
        pair_of.push_back(it->second);
    }
}

struct CellOut
{
    MethodEval eval;
    RunMetrics metrics;
};

/**
 * The grid op: every cell's runFunctional -> buildFullTrace ->
 * simulateAccelerator, cells fanned across the pool (the per-sample
 * layer nests inline, exactly as ExperimentGrid runs them).
 */
std::vector<CellOut>
runCells(const std::vector<Cell> &cells, int samples, uint64_t seed,
         SpanLog &log, ThreadPool &pool)
{
    std::vector<std::unique_ptr<Evaluator>> evs;
    std::vector<size_t> pair_of;
    buildEvaluators(cells, evalOptions(samples, seed), log, evs, pair_of);
    std::vector<CellOut> out(cells.size());
    const int parent = Adopt::currentSpan();
    const int op = Adopt::currentOp();
    pool.parallelFor(static_cast<int64_t>(cells.size()), [&](int64_t i) {
        Adopt adopt(parent, op);
        const Cell &c = cells[static_cast<size_t>(i)];
        const Evaluator &ev = *evs[pair_of[static_cast<size_t>(i)]];
        CellOut &o = out[static_cast<size_t>(i)];
        {
            Scope span(log, "eval.run_functional");
            o.eval = ev.runFunctional(c.method, &pool);
        }
        WorkloadTrace trace;
        {
            Scope span(log, "eval.build_trace");
            trace = ev.buildFullTrace(c.method, o.eval);
        }
        {
            Scope span(log, kSimSpan[c.method_id]);
            o.metrics = simulateAccelerator(c.accel, trace);
        }
    });
    {
        Scope span(log, "eval.release");
        evs.clear();
    }
    return out;
}

/** Mean SEC keep fraction after the last layer, and mean psi. */
void
focusStats(const std::vector<Cell> &cells, const std::vector<CellOut> &out,
           ModelStats &stats)
{
    std::vector<double> keep, psi;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].method_id != kFocusMethod) {
            continue;
        }
        const FunctionalAggregate &agg = out[i].eval.agg;
        keep.push_back(agg.keep_out.back());
        std::vector<double> all;
        for (const std::vector<double> *v :
             {&agg.psi_qkv, &agg.psi_oproj, &agg.psi_ffn, &agg.psi_down}) {
            all.insert(all.end(), v->begin(), v->end());
        }
        psi.push_back(mean(all));
    }
    stats["focus.keep_out_last"] = mean(keep);
    stats["focus.psi_mean"] = mean(psi);
}

// ---- layer pass ---------------------------------------------------

/** Minimum timed wall per kernel in the kernel probe. */
constexpr uint64_t kKernelProbeNs = 40'000'000;
/** Fused compositions re-costed one by one in the fleet probe. */
constexpr size_t kProbeCompositions = 16;
/** Repeats of the sub-millisecond serving calls. */
constexpr int kServeRepeats = 20;
/** Share of runFunctional by which eval.self_s may read below 0. */
constexpr double kSelfTimeSlack = 0.05;

/** Layer-0 geometry of the workload's first sample. */
struct Shape
{
    ModelProfile model;
    int64_t rows = 0; ///< visual + text tokens
};

/** What the grid probe hands on: the shape and phase A's outputs. */
struct GridProbe
{
    Shape shape;
    std::vector<CellOut> out;
};

/**
 * Grid layers on @p cells: phase A runs each pair's cells through
 * runFunctional / buildFullTrace / simulateAccelerator; phase B
 * rebuilds the same inputs with fresh evaluators and times the inner
 * calls runFunctional makes — VideoGenerator::sample and
 * VlmModel::forwardBatch, chunked the way the evaluator chunks them —
 * so eval.self_s is runFunctional minus its inner calls.  Pairs fan
 * across the pool in both phases, so both see the same contention.
 */
GridProbe
probeGrid(const std::vector<Cell> &cells, int samples, uint64_t seed,
          SpanLog &log, ThreadPool &pool)
{
    GridProbe probe;
    probe.out.resize(cells.size());
    std::vector<std::vector<size_t>> pairs;
    std::vector<std::unique_ptr<Evaluator>> evs;
    std::vector<size_t> pair_of;
    buildEvaluators(cells, evalOptions(samples, seed), log, evs, pair_of);
    pairs.resize(evs.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        pairs[pair_of[i]].push_back(i);
    }
    const int parent = Adopt::currentSpan();
    const int64_t npairs = static_cast<int64_t>(pairs.size());

    pool.parallelFor(npairs, [&](int64_t p) {
        Adopt adopt(parent, -1);
        const Evaluator &ev = *evs[static_cast<size_t>(p)];
        for (const size_t i : pairs[static_cast<size_t>(p)]) {
            const Cell &c = cells[i];
            MethodEval &eval = probe.out[i].eval;
            RunMetrics &m = probe.out[i].metrics;
            {
                Scope span(log, "eval.run_functional");
                eval = ev.runFunctional(c.method, &pool);
            }
            WorkloadTrace trace;
            {
                Scope span(log, "eval.build_trace");
                trace = ev.buildFullTrace(c.method, eval);
            }
            {
                Scope span(log, kSimSpan[c.method_id]);
                m = simulateAccelerator(c.accel, trace);
            }
            log.count("sim.tile_events",
                      static_cast<double>(m.tile_lengths.size()));
            log.count("sim.cycles", static_cast<double>(m.cycles));
        }
    });

    std::vector<std::unique_ptr<Evaluator>> fresh;
    std::vector<size_t> fresh_pair_of;
    buildEvaluators(cells, evalOptions(samples, seed), log, fresh,
                    fresh_pair_of);
    probe.shape.model = fresh.front()->modelProfile();
    pool.parallelFor(npairs, [&](int64_t p) {
        Adopt adopt(parent, -1);
        const Evaluator &ev = *fresh[static_cast<size_t>(p)];
        std::vector<VideoSample> inputs;
        for (int k = 0; k < samples; ++k) {
            Scope span(log, "workload.sample");
            inputs.push_back(
                ev.generator().sample(static_cast<uint64_t>(k)));
        }
        const int64_t n = samples;
        const int64_t rows0 = inputs.front().numVisual() +
            inputs.front().numText();
        if (p == 0) {
            probe.shape.rows = rows0;
        }
        // A copy of the chunking rule in
        // Evaluator::runFunctionalBatched (src/eval/evaluator.cc): a
        // 512-row packing budget, at least one chunk per pool thread.
        // If that rule changes, change this copy too, or the vlm
        // metrics time stale chunks and eval.self_s goes wrong.
        const int64_t per_batch =
            std::max<int64_t>(1, 512 / std::max<int64_t>(1, rows0));
        const int64_t chunks = std::min<int64_t>(
            n, std::max<int64_t>(pool.threads(),
                                 (n + per_batch - 1) / per_batch));
        int64_t rows = 0;
        for (const VideoSample &s : inputs) {
            rows += s.numVisual() + s.numText();
        }
        for (const size_t i : pairs[static_cast<size_t>(p)]) {
            const Cell &c = cells[i];
            for (int64_t ci = 0; ci < chunks; ++ci) {
                const int64_t lo = ci * n / chunks;
                const int64_t hi = (ci + 1) * n / chunks;
                std::vector<const VideoSample *> ptrs;
                for (int64_t s = lo; s < hi; ++s) {
                    ptrs.push_back(&inputs[static_cast<size_t>(s)]);
                }
                Scope span(log, kForwardSpan[c.method_id]);
                ev.model().forwardBatch(ptrs.data(), hi - lo, c.method,
                                        ev.generator().bank());
            }
            log.count(std::string("vlm.samples.") +
                          kMethodTag[c.method_id],
                      static_cast<double>(n));
            log.count("vlm.rows", static_cast<double>(rows));
        }
    });
    return probe;
}

std::vector<float>
randomVector(std::mt19937 &rng, int64_t n)
{
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    std::vector<float> v(static_cast<size_t>(n));
    for (float &x : v) {
        x = u(rng);
    }
    return v;
}

/** Repeat @p fn inside span @p name until kKernelProbeNs elapse. */
template <typename Fn>
int64_t
repeatTimed(SpanLog &log, const char *name, Fn fn)
{
    const uint64_t start = nowNs();
    int64_t reps = 0;
    while (reps == 0 || nowNs() - start < kKernelProbeNs) {
        Scope span(log, name);
        fn();
        ++reps;
    }
    return reps;
}

/**
 * The tensor kernels at one layer-0 shape, run serially: a width-1
 * pool marks the region parallel, so the kernels' own fan-out runs
 * inline, exactly as it does under the grid's cell tasks.  MACs are
 * computed from the shapes.
 */
void
probeKernels(const Shape &shape, uint64_t seed, SpanLog &log)
{
    const int64_t r = shape.rows;
    const int64_t d = shape.model.hidden;
    const int64_t inner = shape.model.ffnInner();
    const int64_t hd = shape.model.headDim();
    const int64_t vec = 32; // SIC vector length (FocusConfig default)
    const double causal = 0.5 * static_cast<double>(r) *
        static_cast<double>(r + 1);

    std::mt19937 rng(static_cast<uint32_t>(seed));
    const std::vector<float> x = randomVector(rng, r * inner);
    const std::vector<float> wqkv = randomVector(rng, d * d);
    const std::vector<float> wup = randomVector(rng, d * inner);
    const std::vector<float> wdown = randomVector(rng, inner * d);
    const std::vector<float> q = randomVector(rng, r * hd);
    const std::vector<float> k = randomVector(rng, r * hd);
    std::vector<float> out(static_cast<size_t>(r * inner));
    std::vector<float> scores(static_cast<size_t>(r * r));
    std::vector<float> probs = randomVector(rng, r * r);
    std::vector<float> norms(static_cast<size_t>(r));
    std::vector<float> sims(8);

    ThreadPool serial(1);
    serial.parallelFor(1, [&](int64_t) {
        const int64_t gemm_reps = repeatTimed(log, "tensor.gemm", [&] {
            kernels::gemmF32(r, d, d, x.data(), d, wqkv.data(), d,
                             out.data(), d);
            kernels::gemmF32(r, inner, d, x.data(), d, wup.data(), inner,
                             out.data(), inner);
            kernels::gemmF32(r, d, inner, x.data(), inner, wdown.data(),
                             d, out.data(), d);
        });
        log.count("tensor.gemm_macs",
                  static_cast<double>(gemm_reps) *
                      static_cast<double>(r * (d * d + 2 * d * inner)));

        const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
        const int64_t qk_reps =
            repeatTimed(log, "tensor.qk_scores", [&] {
                kernels::qkScoresCausalF32(q.data(), hd, k.data(), hd, r,
                                           hd, scale, scores.data(), r);
            });
        log.count("tensor.qk_scores_macs",
                  static_cast<double>(qk_reps) * causal *
                      static_cast<double>(hd));

        const int64_t pv_reps = repeatTimed(log, "tensor.pv", [&] {
            kernels::pvCausalF32(r, hd, probs.data(), r, nullptr, k.data(),
                                 hd, out.data(), hd);
        });
        log.count("tensor.pv_macs", static_cast<double>(pv_reps) *
                                        causal * static_cast<double>(hd));

        // Re-normalizing the same rows costs what the first pass does.
        const int64_t sm_reps = repeatTimed(log, "tensor.softmax", [&] {
            kernels::softmaxRowsF32(r, r, probs.data(), r);
        });
        log.count("tensor.softmax_rows",
                  static_cast<double>(sm_reps * r));

        // SIC matcher: each key against its (up to) 7 predecessors in
        // a 2x2x2 block, over vec-wide slices of the packed tile.
        kernels::l2NormRowsF32(x.data(), vec, r, vec, norms.data());
        int64_t dots = 0;
        repeatTimed(log, "tensor.sim_gather", [&] {
            int64_t cand[7];
            for (int64_t i = 1; i < r; ++i) {
                const int64_t count = std::min<int64_t>(7, i);
                for (int64_t c = 0; c < count; ++c) {
                    cand[c] = i - 1 - c;
                }
                kernels::simGatherF32(x.data() + i * vec,
                                      norms[static_cast<size_t>(i)],
                                      x.data(), vec, norms.data(), cand,
                                      count, vec, sims.data());
                dots += count;
            }
        });
        log.count("tensor.sim_gather_dots", static_cast<double>(dots));
    });

    // Dense layer MACs at this shape: 4 D x D projections and the
    // three FFN GEMMs, against causal QK^T + PV over every head.
    const double heads = shape.model.heads;
    const double attn = 2.0 * heads * causal * static_cast<double>(hd);
    const double gemm = static_cast<double>(r) *
        static_cast<double>(4 * d * d + 3 * d * inner);
    log.count("tensor.attention_mac_share", attn / (attn + gemm));
}

/**
 * Serving and cluster layers on one replay: stream generation, the
 * calibrated simulator, open-loop planning, ring routing, the
 * cluster run, then the run's distinct fused compositions re-costed
 * one by one on a second simulator with the same calibration.
 */
void
probeFleet(uint64_t seed, SpanLog &log, ThreadPool &pool,
           ModelStats &stats)
{
    const QueueConfig q = fleetQueue(seed, kFleetRequests);
    const EvalOptions eval = evalOptions(kFleetCalibrationSamples, seed);
    std::vector<ServeRequest> stream;
    for (int i = 0; i < kServeRepeats; ++i) {
        Scope span(log, "serve.generate");
        stream = RequestQueue(q).generate();
    }

    ServingSimulator sim(q, AccelConfig::focus(), eval);
    {
        Scope span(log, "serve.calibrate");
        sim.calibrate(&pool);
    }
    {
        Scope span(log, "serve.hit_traces");
        sim.ensureHitTraces(&pool);
    }
    const std::vector<BatchKey> keys = sim.batchKeys(stream);
    const BatchScheduler scheduler(fleetScheduler());
    for (int i = 0; i < kServeRepeats; ++i) {
        Scope span(log, "serve.plan");
        scheduler.planOpenLoop(stream, keys);
    }

    std::vector<std::string> route_keys;
    for (const ServeRequest &req : stream) {
        route_keys.push_back(ClusterSimulator::routingKey(
            req, q.mix[static_cast<size_t>(req.class_id)]));
    }
    const HashRing ring(kFleetReplicas);
    for (int i = 0; i < kServeRepeats; ++i) {
        Scope span(log, "cluster.route");
        for (const std::string &key : route_keys) {
            ring.route(key);
        }
    }
    log.count("cluster.routes",
              static_cast<double>(kServeRepeats * route_keys.size()));

    ClusterReport rep;
    {
        Scope span(log, "cluster.run");
        rep = ClusterSimulator(sim, fleetCluster(sim))
                  .run(fleetScheduler(), &pool);
    }

    std::vector<std::vector<size_t>> comps;
    std::set<std::vector<size_t>> seen;
    std::vector<double> sizes;
    for (const BatchRecord &b : rep.merged.batches) {
        sizes.push_back(static_cast<double>(b.request_ids.size()));
        std::vector<size_t> comp;
        for (const int64_t id : b.request_ids) {
            const RequestOutcome &o =
                rep.merged.outcomes[static_cast<size_t>(id)];
            comp.push_back(ServingSimulator::comboCode(
                sim.classCombo(o.class_id), o.prefix_hit));
        }
        if (seen.insert(comp).second) {
            comps.push_back(comp);
        }
    }
    log.count("serve.compositions", static_cast<double>(comps.size()));
    stats["prefix_cache.hit_rate"] = rep.prefix_cache.hitRate();
    stats["cluster.load_imbalance"] = rep.load_imbalance;
    stats["serve.batch_size_mean"] = mean(sizes);

    ServingSimulator costing(q, AccelConfig::focus(), eval);
    costing.calibrate(&pool);
    costing.ensureHitTraces(&pool);
    for (size_t c = 0; c < std::min(kProbeCompositions, comps.size());
         ++c) {
        std::vector<const WorkloadTrace *> parts;
        for (const size_t code : comps[c]) {
            parts.push_back(&costing.codeTrace(code));
        }
        WorkloadTrace fused;
        {
            Scope span(log, "sim.fuse");
            fused = fuseTraces(parts);
        }
        RunMetrics m;
        {
            Scope span(log, "sim.simulate.batch");
            m = simulateAccelerator(AccelConfig::focus(), fused);
        }
        log.count("sim.tile_events",
                  static_cast<double>(m.tile_lengths.size()));
        log.count("sim.cycles", static_cast<double>(m.cycles));
        Scope span(log, "serve.cost");
        costing.costComposition(comps[c]);
    }
}

double
perCall(const SpanLog &log, const char *name, double scale)
{
    const int64_t n = log.calls(name);
    return n > 0 ? scale * log.seconds(name) / static_cast<double>(n)
                 : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (const Workload w : {Workload::VideoGrid, Workload::ImageGrid}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload w)
{
    return w == Workload::VideoGrid ? "video_grid" : "image_grid";
}

OpResult
runOp(Workload w, uint64_t seed, SpanLog &log, ThreadPool &pool)
{
    const std::vector<Cell> cells = gridCells(w);
    const int samples = gridSamples(w);
    const std::vector<CellOut> out =
        runCells(cells, samples, seed, log, pool);

    OpResult r;
    r.items = static_cast<int64_t>(cells.size()) * samples;
    Digest d;
    for (size_t i = 0; i < cells.size(); ++i) {
        const MethodEval &ev = out[i].eval;
        const RunMetrics &m = out[i].metrics;
        d.add(ev.accuracy);
        d.add(ev.sparsity);
        d.add(m.cycles);
        d.add(m.energy.total());
        r.detail += format("  %s/%s/%s accuracy=%.17g sparsity=%.17g "
                           "cycles=%" PRIu64 " energy_j=%.17g\n",
                           cells[i].model.c_str(),
                           cells[i].dataset.c_str(),
                           kMethodTag[cells[i].method_id], ev.accuracy,
                           ev.sparsity, m.cycles, m.energy.total());
    }
    r.digest = d.value();
    focusStats(cells, out, r.stats);
    return r;
}

void
layerPass(Workload w, uint64_t seed, SpanLog &log, ThreadPool &pool,
          std::map<std::string, Metric> &out)
{
    Scope root(log, "layer_pass", -1);
    ModelStats stats;

    // Serving layers first: calibration then runs the functional pass
    // itself instead of reading results the grid probe left in the
    // program's functional cache.
    probeFleet(seed, log, pool, stats);
    const std::vector<Cell> cells = gridCells(w);
    const GridProbe grid =
        probeGrid(cells, gridSamples(w), seed, log, pool);
    probeKernels(grid.shape, seed, log);
    focusStats(cells, grid.out, stats);

    const auto put = [&](const std::string &name, double v,
                         const char *unit) { out[name] = {v, unit}; };

    put("workload.sample_ms", perCall(log, "workload.sample", 1e3), "ms");
    double forward_s = 0.0;
    for (int m = 0; m < kMethods; ++m) {
        const double s = log.seconds(kForwardSpan[m]);
        forward_s += s;
        put(std::string("vlm.forward_ms_per_sample.") + kMethodTag[m],
            1e3 * ratio(s, log.counter(std::string("vlm.samples.") +
                                       kMethodTag[m])),
            "ms");
    }
    put("vlm.rows_per_s", ratio(log.counter("vlm.rows"), forward_s),
        "rows/s");

    put("tensor.gemm_gmac_per_s",
        1e-9 * ratio(log.counter("tensor.gemm_macs"),
                     log.seconds("tensor.gemm")),
        "GMAC/s");
    put("tensor.qk_scores_gmac_per_s",
        1e-9 * ratio(log.counter("tensor.qk_scores_macs"),
                     log.seconds("tensor.qk_scores")),
        "GMAC/s");
    put("tensor.pv_gmac_per_s",
        1e-9 * ratio(log.counter("tensor.pv_macs"),
                     log.seconds("tensor.pv")),
        "GMAC/s");
    put("tensor.softmax_ns_per_row",
        1e9 * ratio(log.seconds("tensor.softmax"),
                    log.counter("tensor.softmax_rows")),
        "ns");
    put("tensor.sim_gather_ns_per_dot",
        1e9 * ratio(log.seconds("tensor.sim_gather"),
                    log.counter("tensor.sim_gather_dots")),
        "ns");
    put("tensor.attention_mac_share",
        log.counter("tensor.attention_mac_share"), "ratio");

    const double rf_s = log.seconds("eval.run_functional");
    const double inner_s = log.seconds("workload.sample") + forward_s;
    // runFunctional's own work is a few percent of it at most, so the
    // two phases' noise can leave eval.self_s slightly negative; more
    // than that means the phases no longer do the same work.
    if (rf_s - inner_s < -kSelfTimeSlack * rf_s) {
        std::fprintf(stderr,
                     "perfbench: WARNING eval.self_s is far below 0: the "
                     "inner calls took %.3f s against %.3f s of "
                     "runFunctional; probeGrid's copy of the evaluator's "
                     "chunking rule may be stale\n",
                     inner_s, rf_s);
    }
    put("eval.run_functional_s", perCall(log, "eval.run_functional", 1.0),
        "s");
    put("eval.self_s",
        ratio(rf_s - inner_s,
              static_cast<double>(log.calls("eval.run_functional"))),
        "s");
    put("eval.build_trace_ms", perCall(log, "eval.build_trace", 1e3),
        "ms");

    double sim_s = log.seconds("sim.simulate.batch");
    const char *const sim_metric[kMethods] = {
        "sim.simulate_ms.sa", "sim.simulate_ms.adaptiv",
        "sim.simulate_ms.cmc", "sim.simulate_ms.focus"};
    for (int m = 0; m < kMethods; ++m) {
        sim_s += log.seconds(kSimSpan[m]);
        put(sim_metric[m], perCall(log, kSimSpan[m], 1e3), "ms");
    }
    const double tiles = log.counter("sim.tile_events");
    put("sim.fuse_ms", perCall(log, "sim.fuse", 1e3), "ms");
    put("sim.tile_events", tiles, "count");
    put("sim.ns_per_tile_event", 1e9 * ratio(sim_s, tiles), "ns");
    put("sim.sim_cycles_per_host_s",
        ratio(log.counter("sim.cycles"), sim_s), "cycles/s");

    put("serve.calibrate_s", log.seconds("serve.calibrate"), "s");
    put("serve.hit_traces_s", log.seconds("serve.hit_traces"), "s");
    put("serve.generate_ms", perCall(log, "serve.generate", 1e3), "ms");
    put("serve.plan_ms", perCall(log, "serve.plan", 1e3), "ms");
    put("serve.compositions", log.counter("serve.compositions"),
        "count");
    put("serve.cost_ms_per_composition",
        perCall(log, "serve.cost", 1e3), "ms");
    put("cluster.run_s", log.seconds("cluster.run"), "s");
    put("cluster.route_ns",
        1e9 * ratio(log.seconds("cluster.route"),
                    log.counter("cluster.routes")),
        "ns");

    for (const auto &kv : stats) {
        put(kv.first, kv.second, "ratio");
    }
    out["serve.batch_size_mean"].unit = "count";
}

} // namespace perfbench
