/**
 * @file
 * Tests for the parallel execution runtime: pool lifecycle,
 * parallelFor index coverage, exception propagation, nesting, the
 * strict FOCUS_THREADS override, and the determinism contract —
 * evaluator and experiment-grid results must be bit-identical at
 * every thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "eval/evaluator.h"
#include "eval/experiment.h"
#include "runtime/thread_pool.h"

namespace focus
{
namespace
{

EvalOptions
quick(int samples = 5)
{
    EvalOptions o;
    o.samples = samples;
    o.seed = 321;
    return o;
}

// Death tests first (by convention): forking is cleanest before
// other tests have started pool threads.
TEST(RuntimeDeathTest, RunFunctionalPanicsOnNonPositiveSamples)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            EvalOptions o;
            o.samples = 0;
            Evaluator ev("Llava-Vid", "MVBench", o);
            ev.runFunctional(MethodConfig::dense());
        },
        "samples must be positive");
}

TEST(ThreadPoolDeathTest, FocusThreadsEnvControlsDefault)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const char *ambient = std::getenv("FOCUS_THREADS");
    const std::string saved = ambient != nullptr ? ambient : "";

    ASSERT_EQ(setenv("FOCUS_THREADS", "3", 1), 0);
    EXPECT_EQ(ThreadPool::defaultThreads(), 3);
    // Garbage is fatal and names the variable, like every env knob.
    for (const char *bad : {"abc", "0", "-3", "4x", "+2", " 4",
                            "99999999999"}) {
        ASSERT_EQ(setenv("FOCUS_THREADS", bad, 1), 0);
        EXPECT_EXIT(ThreadPool::defaultThreads(),
                    testing::ExitedWithCode(1),
                    "FOCUS_THREADS='.*' is not a positive integer")
            << "value '" << bad << "'";
    }
    // Unset and empty both select the hardware concurrency.
    ASSERT_EQ(setenv("FOCUS_THREADS", "", 1), 0);
    EXPECT_GE(ThreadPool::defaultThreads(), 1);
    ASSERT_EQ(unsetenv("FOCUS_THREADS"), 0);
    EXPECT_GE(ThreadPool::defaultThreads(), 1);

    if (ambient != nullptr) {
        ASSERT_EQ(setenv("FOCUS_THREADS", saved.c_str(), 1), 0);
    }
}

TEST(ThreadPool, StartStopAndThreadCount)
{
    {
        ThreadPool p(1);
        EXPECT_EQ(p.threads(), 1);
    }
    {
        ThreadPool p(4);
        EXPECT_EQ(p.threads(), 4);
    }
    // Repeated construction/destruction must not leak or hang.
    for (int i = 0; i < 5; ++i) {
        ThreadPool p(3);
        p.parallelFor(1, [](int64_t) {});
    }
}

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce)
{
    ThreadPool p(4);
    constexpr int64_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    p.parallelFor(n, [&](int64_t i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << "index " << i;
    }
}

TEST(ThreadPool, ZeroAndNegativeCountsAreNoOps)
{
    ThreadPool p(4);
    std::atomic<int> calls{0};
    p.parallelFor(0, [&](int64_t) { calls.fetch_add(1); });
    p.parallelFor(-5, [&](int64_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SingleThreadRunsInlineOnCaller)
{
    ThreadPool p(1);
    const std::thread::id self = std::this_thread::get_id();
    std::vector<std::thread::id> ids(16);
    p.parallelFor(16, [&](int64_t i) {
        // The serial fallback still marks the parallel region, so a
        // nested parallelFor on any pool stays inline.
        EXPECT_TRUE(ThreadPool::inParallelRegion());
        ids[static_cast<size_t>(i)] = std::this_thread::get_id();
    });
    EXPECT_FALSE(ThreadPool::inParallelRegion());
    for (const std::thread::id &id : ids) {
        EXPECT_EQ(id, self);
    }
}

TEST(ThreadPool, SingleIndexDoesNotSuppressNestedFanOut)
{
    // One work item carries no outer parallelism, so a one-cell
    // experiment grid must still fan its sample layer out.
    ThreadPool p(4);
    std::atomic<int> calls{0};
    p.parallelFor(1, [&](int64_t) {
        EXPECT_FALSE(ThreadPool::inParallelRegion());
        p.parallelFor(64, [&](int64_t) { calls.fetch_add(1); });
    });
    EXPECT_EQ(calls.load(), 64);
}

TEST(ThreadPool, SerialPoolSuppressesNestedFanOut)
{
    ThreadPool serial(1);
    ThreadPool wide(4);
    const std::thread::id self = std::this_thread::get_id();
    std::vector<std::thread::id> ids(8);
    serial.parallelFor(2, [&](int64_t outer) {
        wide.parallelFor(4, [&](int64_t inner) {
            ids[static_cast<size_t>(outer * 4 + inner)] =
                std::this_thread::get_id();
        });
    });
    for (const std::thread::id &id : ids) {
        EXPECT_EQ(id, self);
    }
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives)
{
    ThreadPool p(4);
    EXPECT_THROW(p.parallelFor(100,
                               [](int64_t i) {
                                   if (i == 37) {
                                       throw std::runtime_error(
                                           "boom");
                                   }
                               }),
                 std::runtime_error);
    // The pool must stay usable after a throwing job.
    std::atomic<int> calls{0};
    p.parallelFor(64, [&](int64_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 64);
}

TEST(ThreadPool, ExceptionPropagatesFromSerialFallback)
{
    ThreadPool p(1);
    EXPECT_THROW(p.parallelFor(4,
                               [](int64_t) {
                                   throw std::runtime_error("boom");
                               }),
                 std::runtime_error);
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool p(4);
    std::atomic<int> calls{0};
    EXPECT_FALSE(ThreadPool::inParallelRegion());
    p.parallelFor(8, [&](int64_t) {
        EXPECT_TRUE(ThreadPool::inParallelRegion());
        p.parallelFor(8, [&](int64_t) { calls.fetch_add(1); });
    });
    EXPECT_FALSE(ThreadPool::inParallelRegion());
    EXPECT_EQ(calls.load(), 64);
}

TEST(ThreadPool, SetGlobalThreadsResizesGlobalPool)
{
    ThreadPool::setGlobalThreads(2);
    EXPECT_EQ(ThreadPool::global().threads(), 2);
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(ThreadPool::global().threads(), 1);
    ThreadPool::setGlobalThreads(0); // back to the default sizing
    EXPECT_EQ(ThreadPool::global().threads(),
              ThreadPool::defaultThreads());
}

// The acceptance contract of the refactor: MethodEval aggregates are
// bit-identical between the serial pool and a parallel pool.
TEST(Determinism, RunFunctionalBitIdenticalAcrossThreadCounts)
{
    Evaluator ev("Llava-Vid", "MVBench", quick());

    ThreadPool serial_pool(1);
    ThreadPool parallel_pool(4);
    const MethodEval serial =
        ev.runFunctional(MethodConfig::focusFull(), &serial_pool);
    const MethodEval parallel =
        ev.runFunctional(MethodConfig::focusFull(), &parallel_pool);

    EXPECT_EQ(serial.method, parallel.method);
    EXPECT_EQ(serial.accuracy, parallel.accuracy);
    EXPECT_EQ(serial.sparsity, parallel.sparsity);
    EXPECT_EQ(serial.agg.samples, parallel.agg.samples);
    ASSERT_EQ(serial.agg.keep_in.size(), parallel.agg.keep_in.size());
    ASSERT_EQ(serial.agg.tile_fracs.size(),
              parallel.agg.tile_fracs.size());
    for (size_t l = 0; l < serial.agg.keep_in.size(); ++l) {
        EXPECT_EQ(serial.agg.keep_in[l], parallel.agg.keep_in[l]);
        EXPECT_EQ(serial.agg.keep_out[l], parallel.agg.keep_out[l]);
        EXPECT_EQ(serial.agg.psi_qkv[l], parallel.agg.psi_qkv[l]);
        EXPECT_EQ(serial.agg.psi_oproj[l],
                  parallel.agg.psi_oproj[l]);
        EXPECT_EQ(serial.agg.psi_ffn[l], parallel.agg.psi_ffn[l]);
        EXPECT_EQ(serial.agg.psi_down[l], parallel.agg.psi_down[l]);
    }
    for (size_t i = 0; i < serial.agg.tile_fracs.size(); ++i) {
        EXPECT_EQ(serial.agg.tile_fracs[i],
                  parallel.agg.tile_fracs[i]);
    }
}

ExperimentGrid
smallGrid()
{
    ExperimentGrid grid(quick(3));
    grid.add({"Llava-Vid", "MVBench", MethodConfig::dense(),
              AccelConfig::systolicArray()});
    grid.add({"Llava-Vid", "MVBench", MethodConfig::focusFull(),
              AccelConfig::focus()});
    ExperimentCell sparsity_cell{"Llava-OV", "MVBench",
                                 MethodConfig::cmcBaseline(),
                                 AccelConfig::cmc()};
    sparsity_cell.trace_sparsity = true;
    sparsity_cell.keep_trace = true;
    grid.add(sparsity_cell);
    return grid;
}

TEST(Determinism, ExperimentGridBitIdenticalAcrossThreadCounts)
{
    ThreadPool serial_pool(1);
    ThreadPool parallel_pool(4);
    ExperimentGrid ga = smallGrid();
    ExperimentGrid gb = smallGrid();
    const std::vector<ExperimentResult> a = ga.run(serial_pool);
    const std::vector<ExperimentResult> b = gb.run(parallel_pool);

    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].eval.accuracy, b[i].eval.accuracy);
        EXPECT_EQ(a[i].eval.sparsity, b[i].eval.sparsity);
        EXPECT_EQ(a[i].metrics.cycles, b[i].metrics.cycles);
        EXPECT_EQ(a[i].metrics.dramTotalBytes(),
                  b[i].metrics.dramTotalBytes());
        EXPECT_EQ(a[i].metrics.energy.total(),
                  b[i].metrics.energy.total());
        EXPECT_EQ(a[i].metrics.utilization, b[i].metrics.utilization);
        EXPECT_EQ(a[i].trace_sparsity, b[i].trace_sparsity);
        EXPECT_EQ(a[i].trace.totalMacs(), b[i].trace.totalMacs());
    }
}

TEST(ExperimentGrid, ResultsFollowInsertionOrderAndFlags)
{
    ThreadPool pool(4);
    ExperimentGrid grid(quick(2));

    ExperimentCell functional_only{"Llava-Vid", "MVBench",
                                   MethodConfig::dense()};
    functional_only.simulate = false;
    const size_t f_id = grid.add(functional_only);

    ExperimentCell simulated{"Llava-Vid", "MVBench",
                             MethodConfig::focusFull(),
                             AccelConfig::focus()};
    simulated.tag = "focus";
    const size_t s_id = grid.add(simulated);
    EXPECT_EQ(grid.size(), 2u);

    const std::vector<ExperimentResult> res = grid.run(pool);
    ASSERT_EQ(res.size(), 2u);
    EXPECT_EQ(res[f_id].cell.method.name(), "Dense");
    EXPECT_EQ(res[f_id].metrics.cycles, 0u); // not simulated
    EXPECT_EQ(res[s_id].cell.tag, "focus");
    EXPECT_GT(res[s_id].metrics.cycles, 0u);
    EXPECT_GT(res[s_id].eval.sparsity, 0.0);
}

TEST(ExperimentGrid, SharesEvaluatorAcrossCells)
{
    ExperimentGrid grid(quick(2));
    const Evaluator &a = grid.evaluator("Llava-Vid", "MVBench");
    const Evaluator &b = grid.evaluator("Llava-Vid", "MVBench");
    EXPECT_EQ(&a, &b);
    const Evaluator &c = grid.evaluator("Llava-OV", "MVBench");
    EXPECT_NE(&a, &c);
}

} // namespace
} // namespace focus
