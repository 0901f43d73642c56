/**
 * @file
 * The benchmark's two workloads, each a repeated *op*:
 *
 *  - video_grid: the Fig. 9(a) roster (3 video models x 3 video
 *    datasets x {Dense on SA, AdapTiV, CMC, Focus}, 5 samples per
 *    cell); every cell runs Evaluator::runFunctional ->
 *    buildFullTrace -> simulateAccelerator, cells fanned across the
 *    pool.
 *  - image_grid: the Tbl. V roster ({Llava-OV, Qwen2.5-VL} x 3 image
 *    datasets x the same four methods, 32 samples per cell).
 *
 * Every op builds fresh Evaluator objects for its own seed, so no
 * memo and no process-wide cache can serve one op from another op's
 * work.  The layer pass (traced runs only) then calls each layer's
 * public entry points one by one, the serving and cluster layers on a
 * 128-request replay of standardServingMix(), and derives the
 * per-layer metrics from the spans it records.
 */

#ifndef FOCUS_PERFBENCH_WORKLOADS_H
#define FOCUS_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace focus
{
class ThreadPool;
}

namespace perfbench
{

enum class Workload
{
    VideoGrid,
    ImageGrid,
};

/** Parse a workload name; false when unknown. */
bool parseWorkload(const std::string &name, Workload &out);
const char *workloadName(Workload w);

/**
 * Simulated or modelled statistics of one op.  A host-only speedup
 * must leave every one of them bit-identical.
 */
using ModelStats = std::map<std::string, double>;

/** Outcome of one op. */
struct OpResult
{
    int64_t items = 0;   ///< samples forwarded x methods
    uint64_t digest = 0; ///< hash of every checked output value
    std::string detail;  ///< the checked values, human-readable
    ModelStats stats;
};

/** Run one op of @p w for @p seed; spans go to @p log. */
OpResult runOp(Workload w, uint64_t seed, SpanLog &log,
               focus::ThreadPool &pool);

/** A per-layer metric: value and unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * The layer pass: re-run the workload's inputs for @p seed (a seed no
 * op uses, so nothing is served from an op's caches), timing each
 * layer's public entry points; adds the per-layer metrics to @p out.
 */
void layerPass(Workload w, uint64_t seed, SpanLog &log,
               focus::ThreadPool &pool,
               std::map<std::string, Metric> &out);

} // namespace perfbench

#endif // FOCUS_PERFBENCH_WORKLOADS_H
