/**
 * @file
 * Deterministic fork-join thread pool.
 *
 * The pool is intentionally work-stealing-free: parallelFor(n, fn)
 * publishes a job whose indices 0..n-1 are handed out through a
 * single atomic cursor, runs every index exactly once, and blocks
 * until all of them completed.  The determinism contract is:
 *
 *  - tasks write their results only into per-index slots, and
 *  - any order-sensitive reduction (floating-point sums in
 *    particular) happens in the caller after the join, in index
 *    order.
 *
 * Under that contract results are bit-identical for every thread
 * count and every assignment of indices to threads, including the
 * serial threads=1 configuration, which never spawns a thread and
 * simply runs the loop inline.
 *
 * Nesting.  A parallelFor called from a task of the same pool
 * publishes its job like any other, so two parallel layers — e.g.
 * experiment-grid cells over QA samples over GEMM M-blocks — share
 * the pool: a worker with no task on its stack takes indices from the
 * oldest published job that still has some (the outermost layer
 * first), and once that runs dry it helps a running task's inner
 * regions.  The caller of a parallelFor runs its own job's indices,
 * then waits at the join without running any other job's indices.
 * That keeps its thread-local scratch (the GEMM's packed B panel,
 * which helpers read while the job is open) untouched until the join.
 * A parallelFor called from a task of a *different* pool runs inline
 * on the calling thread, as does every parallelFor on a one-thread
 * pool and a top-level one of a single index (which marks no region,
 * so its nested regions still fan out).
 *
 * The process-wide pool (ThreadPool::global()) sizes itself from the
 * FOCUS_THREADS environment variable, falling back to the hardware
 * concurrency; setGlobalThreads() lets command-line flags override
 * both.  A malformed FOCUS_THREADS, or a width the host cannot spawn,
 * is a fatal error naming the value.
 */

#ifndef FOCUS_RUNTIME_THREAD_POOL_H
#define FOCUS_RUNTIME_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace focus
{

class ThreadPool
{
  public:
    /**
     * @p threads is the total worker count including the calling
     * thread (which participates in every parallelFor); 0 means
     * defaultThreads().  Exits via fatal() when the host refuses to
     * spawn the workers.
     */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threads() const { return threads_; }

    /**
     * Run fn(i) for every i in [0, n); blocks until all indices
     * completed.  If any task throws, the remaining indices are
     * cancelled and the exception from the lowest-indexed task that
     * threw (among those that started) is rethrown here.
     */
    void parallelFor(int64_t n, const std::function<void(int64_t)> &fn);

    /** True while the calling thread is executing a parallelFor task. */
    static bool inParallelRegion();

    /**
     * The FOCUS_THREADS environment override when set (a positive
     * decimal integer; anything else is fatal), else
     * std::thread::hardware_concurrency (minimum 1).  Unset and empty
     * are the same, as for every env knob (common/env_dispatch.h).
     */
    static int defaultThreads();

    /** Process-wide pool shared by Evaluator and ExperimentGrid. */
    static ThreadPool &global();

    /**
     * Replace the global pool with one of @p threads workers (0 =
     * defaultThreads()); used by the bench --threads flag.  Must not
     * be called while a global parallelFor is in flight.
     */
    static void setGlobalThreads(int threads);

  private:
    /** One fork-join region; lives on the caller's stack. */
    struct Job
    {
        const std::function<void(int64_t)> *fn = nullptr;
        int64_t n = 0;
        std::atomic<int64_t> cursor{0};
        int helpers = 0;          ///< workers inside runJob (guarded by m_)
        std::exception_ptr error; ///< guarded by m_
        int64_t error_index = -1; ///< guarded by m_
    };

    void workerLoop();
    /** Run @p job's indices until its cursor runs dry. */
    void runJob(Job &job);
    /** Oldest published job with indices left, or null (m_ held). */
    Job *openJob() const;
    /** Stop and join every started worker. */
    void stopWorkers();

    int threads_ = 1;
    std::vector<std::thread> workers_;

    std::mutex m_;
    std::condition_variable cv_job_;  ///< idle workers wait here
    std::condition_variable cv_done_; ///< callers wait here for a join
    std::vector<Job *> jobs_;         ///< published, oldest first
    int idle_ = 0;                    ///< workers waiting on cv_job_
    bool stop_ = false;
};

} // namespace focus

#endif // FOCUS_RUNTIME_THREAD_POOL_H
