#include "eval/experiment.h"

#include "obs/trace_span.h"
#include "sim/accel_model.h"

namespace focus
{

size_t
ExperimentGrid::add(const ExperimentCell &cell)
{
    cells_.push_back(cell);
    return cells_.size() - 1;
}

const Evaluator &
ExperimentGrid::evaluator(const std::string &model,
                          const std::string &dataset)
{
    auto key = std::make_pair(model, dataset);
    auto it = evaluators_.find(key);
    if (it == evaluators_.end()) {
        it = evaluators_
                 .emplace(std::move(key),
                          std::make_unique<Evaluator>(model, dataset,
                                                      opts_))
                 .first;
    }
    return *it->second;
}

std::vector<ExperimentResult>
ExperimentGrid::run(ThreadPool &pool)
{
    // Materialize every Evaluator up front, one at a time in
    // first-use order (each fans its weights and samples across the
    // global pool), so the cells only read immutable Evaluators.
    for (const ExperimentCell &cell : cells_) {
        evaluator(cell.model, cell.dataset);
    }

    std::vector<ExperimentResult> results(cells_.size());
    pool.parallelFor(
        static_cast<int64_t>(cells_.size()), [&](int64_t i) {
            const ExperimentCell &cell =
                cells_[static_cast<size_t>(i)];
            const Evaluator &ev = *evaluators_.at(
                std::make_pair(cell.model, cell.dataset));
            ExperimentResult &r = results[static_cast<size_t>(i)];
            r.cell = cell;
            // The sample layer nests on the same pool, where idle
            // workers help it; at pool width 1 the whole grid (cells
            // and samples) is genuinely serial.
            r.eval = ev.runFunctional(cell.method, &pool);
            if (cell.simulate || cell.keep_trace) {
                WorkloadTrace trace =
                    ev.buildFullTrace(cell.method, r.eval);
                if (cell.simulate) {
                    obs::TraceSpan span("eval.simulate");
                    r.metrics =
                        simulateAccelerator(cell.accel, trace);
                }
                if (cell.keep_trace) {
                    r.trace = std::move(trace);
                }
            }
            if (cell.trace_sparsity) {
                r.trace_sparsity =
                    ev.traceSparsity(cell.method, r.eval);
            }
        });
    return results;
}

} // namespace focus
