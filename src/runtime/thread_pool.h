/**
 * @file
 * Deterministic fork-join thread pool.
 *
 * The pool is intentionally work-stealing-free: parallelFor(n, fn)
 * feeds indices 0..n-1 to the workers through a single atomic cursor,
 * runs every index exactly once, and blocks until all of them
 * completed.  The determinism contract is:
 *
 *  - tasks write their results only into per-index slots, and
 *  - any order-sensitive reduction (floating-point sums in
 *    particular) happens in the caller after the join, in index
 *    order.
 *
 * Under that contract results are bit-identical for every thread
 * count, including the serial threads=1 configuration, which never
 * spawns a thread and simply runs the loop inline.
 *
 * parallelFor called from inside a pool task executes inline
 * (serially) on the calling worker, so two parallel layers — e.g.
 * experiment-grid cells over QA samples — compose without deadlock or
 * oversubscription; the outermost parallelFor wins.
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
        int active = 0;           ///< workers inside runJob (guarded by m_)
        std::exception_ptr error; ///< guarded by m_
        int64_t error_index = -1; ///< guarded by m_
    };

    void workerLoop();
    void runJob(Job &job);
    /** Stop and join every started worker. */
    void stopWorkers();

    int threads_ = 1;
    std::vector<std::thread> workers_;

    std::mutex m_;
    std::condition_variable cv_job_;  ///< workers wait here for a job
    std::condition_variable cv_done_; ///< caller waits here for the join
    Job *job_ = nullptr;
    uint64_t epoch_ = 0;
    bool stop_ = false;
};

} // namespace focus

#endif // FOCUS_RUNTIME_THREAD_POOL_H
