/**
 * @file
 * Tests for the parallel execution runtime: pool lifecycle,
 * parallelFor index coverage, exception propagation, nesting (idle
 * workers helping nested regions of their own pool), the strict
 * FOCUS_THREADS override, and the determinism contract — model
 * weights, evaluator and experiment-grid results must be
 * bit-identical at every thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "eval/evaluator.h"
#include "eval/experiment.h"
#include "reference/model_init.h"
#include "runtime/thread_pool.h"
#include "workload/profiles.h"

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

TEST(ThreadPool, NestedParallelForRunsEveryIndexInsideTheRegion)
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

/** How long a nested region's caller waits for a helper to join. */
constexpr std::chrono::seconds kHelpTimeout{10};

/**
 * Blocks a nested region's caller until a thread other than the
 * caller has run one of the region's indices, so a pool that runs the
 * region inline fails after kHelpTimeout instead of hanging.
 */
class HelpLatch
{
  public:
    /** Called from every index; true on a helper thread. */
    bool
    arrive(std::thread::id caller)
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (std::this_thread::get_id() != caller) {
            helped_ = true;
            cv_.notify_all();
            return true;
        }
        if (!timed_out_ &&
            !cv_.wait_for(lk, kHelpTimeout, [&] { return helped_; })) {
            timed_out_ = true;
        }
        return false;
    }

    bool
    helped()
    {
        std::lock_guard<std::mutex> lk(mu_);
        return helped_;
    }

    bool
    timedOut()
    {
        std::lock_guard<std::mutex> lk(mu_);
        return timed_out_;
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool helped_ = false;
    bool timed_out_ = false;
};

TEST(ThreadPool, IdleWorkersRunNestedIndicesOfTheSamePool)
{
    ThreadPool p(4);
    HelpLatch latch;
    std::atomic<int> calls{0};
    // Outer index 1 returns at once, so its thread (or an idle
    // worker) is free to help outer index 0's nested region.
    p.parallelFor(2, [&](int64_t outer) {
        if (outer != 0) {
            return;
        }
        const std::thread::id caller = std::this_thread::get_id();
        p.parallelFor(8, [&](int64_t) {
            calls.fetch_add(1);
            latch.arrive(caller);
        });
    });
    EXPECT_FALSE(latch.timedOut());
    EXPECT_TRUE(latch.helped());
    EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPool, NestedCallOnAnotherPoolRunsInline)
{
    ThreadPool outer(4);
    for (const int width : {1, 4}) {
        ThreadPool other(width);
        std::vector<std::thread::id> outer_ids(8), inner_ids(32);
        outer.parallelFor(8, [&](int64_t o) {
            outer_ids[static_cast<size_t>(o)] =
                std::this_thread::get_id();
            other.parallelFor(4, [&](int64_t i) {
                inner_ids[static_cast<size_t>(o * 4 + i)] =
                    std::this_thread::get_id();
            });
        });
        for (size_t i = 0; i < inner_ids.size(); ++i) {
            EXPECT_EQ(inner_ids[i], outer_ids[i / 4])
                << "width " << width << " index " << i;
        }
    }
}

TEST(ThreadPool, HelpedNestedRegionRethrowsLowestIndex)
{
    ThreadPool p(4);
    HelpLatch latch;
    std::mutex mu;
    std::vector<int64_t> thrown; // indices that threw, guarded by mu
    std::string caught;
    p.parallelFor(2, [&](int64_t outer) {
        if (outer != 0) {
            return;
        }
        const std::thread::id caller = std::this_thread::get_id();
        try {
            p.parallelFor(16, [&](int64_t i) {
                if (latch.arrive(caller)) {
                    std::lock_guard<std::mutex> lk(mu);
                    thrown.push_back(i);
                    throw std::runtime_error(std::to_string(i));
                }
            });
        } catch (const std::runtime_error &e) {
            caught = e.what();
        }
    });
    ASSERT_FALSE(latch.timedOut());
    ASSERT_FALSE(thrown.empty());
    EXPECT_EQ(caught,
              std::to_string(
                  *std::min_element(thrown.begin(), thrown.end())));
    // The pool stays usable after a helped region threw.
    std::atomic<int> calls{0};
    p.parallelFor(64, [&](int64_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 64);
}

TEST(ThreadPool, ThreeNestedLevelsRunEveryIndexOnce)
{
    ThreadPool p(4);
    constexpr int64_t a = 4, b = 5, c = 6;
    for (int rep = 0; rep < 20; ++rep) {
        std::vector<std::atomic<int>> hits(a * b * c);
        p.parallelFor(a, [&](int64_t i) {
            p.parallelFor(b, [&](int64_t j) {
                p.parallelFor(c, [&](int64_t k) {
                    hits[static_cast<size_t>((i * b + j) * c + k)]
                        .fetch_add(1);
                });
            });
        });
        for (size_t i = 0; i < hits.size(); ++i) {
            ASSERT_EQ(hits[i].load(), 1) << "rep " << rep << " index "
                                         << i;
        }
    }
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

/** Every MethodEval aggregate, compared bit for bit. */
void
expectSameEval(const MethodEval &a, const MethodEval &b)
{
    EXPECT_EQ(a.method, b.method);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.sparsity, b.sparsity);
    EXPECT_EQ(a.agg.samples, b.agg.samples);
    ASSERT_EQ(a.agg.keep_in.size(), b.agg.keep_in.size());
    ASSERT_EQ(a.agg.tile_fracs.size(), b.agg.tile_fracs.size());
    for (size_t l = 0; l < a.agg.keep_in.size(); ++l) {
        EXPECT_EQ(a.agg.keep_in[l], b.agg.keep_in[l]);
        EXPECT_EQ(a.agg.keep_out[l], b.agg.keep_out[l]);
        EXPECT_EQ(a.agg.psi_qkv[l], b.agg.psi_qkv[l]);
        EXPECT_EQ(a.agg.psi_oproj[l], b.agg.psi_oproj[l]);
        EXPECT_EQ(a.agg.psi_ffn[l], b.agg.psi_ffn[l]);
        EXPECT_EQ(a.agg.psi_down[l], b.agg.psi_down[l]);
    }
    for (size_t i = 0; i < a.agg.tile_fracs.size(); ++i) {
        EXPECT_EQ(a.agg.tile_fracs[i], b.agg.tile_fracs[i]);
    }
}

// The acceptance contract of the refactor: MethodEval aggregates are
// bit-identical between the serial pool and a parallel pool.
TEST(Determinism, RunFunctionalBitIdenticalAcrossThreadCounts)
{
    Evaluator ev("Llava-Vid", "MVBench", quick());

    ThreadPool serial_pool(1);
    ThreadPool parallel_pool(4);
    expectSameEval(
        ev.runFunctional(MethodConfig::focusFull(), &serial_pool),
        ev.runFunctional(MethodConfig::focusFull(), &parallel_pool));
}

/** Same shape and the same bits in every element. */
void
expectSameBits(const Tensor &got, const Tensor &want, const char *what)
{
    ASSERT_EQ(got.shape(), want.shape()) << what;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<size_t>(want.numel()) *
                              sizeof(float)),
              0)
        << what;
}

void
expectSameWeights(const std::vector<VlmModel::LayerWeights> &got,
                  const std::vector<VlmModel::LayerWeights> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t l = 0; l < want.size(); ++l) {
        SCOPED_TRACE("layer " + std::to_string(l));
        expectSameBits(got[l].wq, want[l].wq, "wq");
        expectSameBits(got[l].wk, want[l].wk, "wk");
        expectSameBits(got[l].wv, want[l].wv, "wv");
        expectSameBits(got[l].wo, want[l].wo, "wo");
        expectSameBits(got[l].wg, want[l].wg, "wg");
        expectSameBits(got[l].wu, want[l].wu, "wu");
        expectSameBits(got[l].wd, want[l].wd, "wd");
        expectSameBits(got[l].n1, want[l].n1, "n1");
        expectSameBits(got[l].n2, want[l].n2, "n2");
    }
}

// VlmModel fills its matrices in parallel from start states it walks
// to with Rng::discard; every weight must equal the serial draw.
TEST(ParallelSetup, ModelWeightsMatchSerialOracleAtEveryWidth)
{
    std::vector<std::string> models = videoModelNames();
    models.push_back("Qwen2.5-VL");
    const uint64_t seed = 0x5eed;
    for (const std::string &name : models) {
        SCOPED_TRACE(name);
        const ModelProfile prof = modelProfile(name);
        const reference::ModelWeights want =
            reference::modelWeights(prof, seed);
        for (const int width : {1, 4}) {
            SCOPED_TRACE("width " + std::to_string(width));
            ThreadPool::setGlobalThreads(width);
            const VlmModel model(prof, seed);
            expectSameWeights(model.weights(false), want.fp32);
            expectSameWeights(model.weights(true), want.int8);
        }
    }
    ThreadPool::setGlobalThreads(0);
}

TEST(ParallelSetup, RunFunctionalSameForEvaluatorsBuiltAtWidth1And4)
{
    ThreadPool::setGlobalThreads(1);
    const Evaluator serial("Llava-OV", "VQAv2", quick(6));
    ThreadPool::setGlobalThreads(4);
    const Evaluator parallel("Llava-OV", "VQAv2", quick(6));
    ThreadPool::setGlobalThreads(0);

    ThreadPool pool(4);
    for (const MethodConfig &m :
         {MethodConfig::dense(), MethodConfig::focusFull()}) {
        SCOPED_TRACE(m.name());
        expectSameEval(serial.runFunctional(m, &pool),
                       parallel.runFunctional(m, &pool));
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
