/**
 * @file
 * Declarative experiment grid: the (model x dataset x method x
 * accelerator) sweep every bench harness runs, expressed as a list of
 * cells and dispatched across the thread pool.
 *
 * A cell names its (model, dataset) pair by profile name, the method
 * to evaluate, and optionally the accelerator to simulate.  Cells
 * that share a (model, dataset) pair share one Evaluator — same
 * synthetic samples, same model weights — exactly as the hand-rolled
 * bench loops did.  run() computes every cell and returns results in
 * insertion order, so output is deterministic regardless of how the
 * pool schedules the cells; per-cell work nests its per-sample
 * parallelFor on the same pool, where idle workers help it.
 */

#ifndef FOCUS_EVAL_EXPERIMENT_H
#define FOCUS_EVAL_EXPERIMENT_H

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eval/evaluator.h"
#include "runtime/thread_pool.h"

namespace focus
{

/** One point of the experiment grid. */
struct ExperimentCell
{
    ExperimentCell() = default;
    ExperimentCell(std::string model_name, std::string dataset_name,
                   MethodConfig method_config,
                   AccelConfig accel_config =
                       AccelConfig::systolicArray())
        : model(std::move(model_name)),
          dataset(std::move(dataset_name)),
          method(std::move(method_config)),
          accel(std::move(accel_config))
    {
    }

    std::string model;
    std::string dataset;
    MethodConfig method;
    AccelConfig accel = AccelConfig::systolicArray();

    /** Run the accelerator cycle model on the full-scale trace. */
    bool simulate = true;
    /** Retain the full-scale trace in the result (GPU model, MACs). */
    bool keep_trace = false;
    /** Compute the Tbl. II full-scale computation sparsity. */
    bool trace_sparsity = false;

    /** Free-form label echoed into the result (sweep point names). */
    std::string tag;
};

/** Everything measured for one cell. */
struct ExperimentResult
{
    ExperimentCell cell;
    MethodEval eval;
    RunMetrics metrics;          ///< meaningful iff cell.simulate
    WorkloadTrace trace;         ///< filled iff cell.keep_trace
    double trace_sparsity = 0.0; ///< filled iff cell.trace_sparsity
};

/**
 * Builds and runs a grid of experiment cells.  Typical use:
 *
 *   ExperimentGrid grid(opts);
 *   for (const auto &model : videoModelNames())
 *       for (const auto &dataset : videoDatasetNames())
 *           grid.add({model, dataset, MethodConfig::focusFull(),
 *                     AccelConfig::focus()});
 *   const auto results = grid.run();
 *
 * Results are keyed by the index add() returned and ordered by it.
 */
class ExperimentGrid
{
  public:
    explicit ExperimentGrid(const EvalOptions &opts) : opts_(opts) {}

    /** Append a cell; returns its index into run()'s result vector. */
    size_t add(const ExperimentCell &cell);

    /**
     * The shared Evaluator for a (model, dataset) pair, creating it
     * on first use.  Also useful before run() for method setup that
     * depends on the pair (frameFusionReductionFor, standardMethods).
     */
    const Evaluator &evaluator(const std::string &model,
                               const std::string &dataset);

    size_t size() const { return cells_.size(); }
    const EvalOptions &options() const { return opts_; }

    /** Compute every cell; results ordered by insertion index. */
    std::vector<ExperimentResult>
    run(ThreadPool &pool = ThreadPool::global());

  private:
    EvalOptions opts_;
    std::vector<ExperimentCell> cells_;
    std::map<std::pair<std::string, std::string>,
             std::unique_ptr<Evaluator>>
        evaluators_;
};

} // namespace focus

#endif // FOCUS_EVAL_EXPERIMENT_H
