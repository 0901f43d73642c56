/**
 * @file
 * End-to-end experiment runner: functional evaluation at reduced
 * scale, aggregation, full-scale trace construction, and accelerator
 * simulation.
 */

#ifndef FOCUS_EVAL_EVALUATOR_H
#define FOCUS_EVAL_EVALUATOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/accel_model.h"
#include "sim/trace.h"
#include "vlm/method.h"
#include "vlm/model.h"
#include "workload/video_gen.h"

namespace focus
{
class ThreadPool;
}

namespace focus
{

/** Options shared by all experiments. */
struct EvalOptions
{
    int samples = 8;       ///< QA samples per (model, dataset, method)
    uint64_t seed = 42;
};

/** Functional evaluation outcome for one method. */
struct MethodEval
{
    std::string method;
    double accuracy = 0.0;  ///< fraction of correctly answered samples
    double sparsity = 0.0;  ///< mean computation sparsity
    FunctionalAggregate agg;
};

/**
 * Runs methods on a fixed (model, dataset) pair; all methods see the
 * same samples and the same model weights.  Immutable once built, so
 * any number of threads may run its const members at once.
 */
class Evaluator
{
  public:
    /**
     * Builds the model weights (VlmModel) and synthesizes all
     * opts.samples QA samples, both fanned across ThreadPool::global();
     * every weight and sample is bit-identical at every pool width.
     * Accepts samples <= 0 (no samples); runFunctional then panics.
     */
    Evaluator(const std::string &model_name,
              const std::string &dataset_name, const EvalOptions &opts);

    /**
     * Functional run: accuracy, sparsity, per-layer aggregates.  The
     * samples built with the Evaluator run through
     * VlmModel::forwardBatch in locality-sized chunks fanned across
     * @p pool (the global pool when null); aggregates are
     * bit-identical at every thread count.  Nothing is memoized
     * across calls: each call runs the forward passes.
     */
    MethodEval runFunctional(const MethodConfig &method,
                             ThreadPool *pool = nullptr) const;

    /** Build the full-scale trace implied by a functional run. */
    WorkloadTrace buildFullTrace(const MethodConfig &method,
                                 const MethodEval &eval) const;

    /** Functional + trace + accelerator simulation in one step. */
    RunMetrics simulate(const MethodConfig &method,
                        const AccelConfig &accel,
                        MethodEval *out_eval = nullptr) const;

    /**
     * Full-scale computation sparsity: 1 - trace MACs / dense trace
     * MACs.  This is the paper's Tbl. II metric (the reduced-scale
     * functional sparsity over-weights attention, which is a much
     * smaller share of compute at 7B dimensions).
     */
    double traceSparsity(const MethodConfig &method,
                         const MethodEval &eval) const;

    const ModelProfile &modelProfile() const { return mp_; }
    const DatasetProfile &datasetProfile() const { return dp_; }
    const VlmModel &model() const { return model_; }
    const VideoGenerator &generator() const { return gen_; }
    const EvalOptions &options() const { return opts_; }

    /**
     * FrameFusion reduction fraction that yields the target
     * computation sparsity on this (model, dataset) pair; solves the
     * analytic op-count equation by bisection.
     */
    double frameFusionReductionFor(double target_sparsity) const;

    /** Standard method roster used across experiments. */
    std::vector<MethodConfig> standardMethods() const;

  private:
    ModelProfile mp_;
    DatasetProfile dp_;
    EvalOptions opts_;
    VideoGenerator gen_;
    VlmModel model_;
    /** All opts_.samples QA samples, gen_.sample(0 .. samples - 1). */
    std::vector<VideoSample> samples_;
    /** MAC total of the dense full-scale trace (traceSparsity). */
    double dense_macs_ = 0.0;

    /** Serial sample-order aggregation of the forward results. */
    MethodEval
    aggregateForwards(const MethodConfig &method,
                      const std::vector<ForwardResult> &forwards) const;

    double opsAtKeep(double keep) const;
};

} // namespace focus

#endif // FOCUS_EVAL_EVALUATOR_H
