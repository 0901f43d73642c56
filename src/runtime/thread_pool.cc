#include "runtime/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <system_error>

#include "common/logging.h"
#include "common/parse.h"
#include "obs/trace_span.h"

namespace focus
{

namespace
{

/** The pool whose task the calling thread runs; null outside tasks. */
thread_local ThreadPool *tls_pool = nullptr;

/** Sets tls_pool for one scope and restores it on exit. */
class PoolScope
{
  public:
    explicit PoolScope(ThreadPool *pool) : saved_(tls_pool)
    {
        tls_pool = pool;
    }
    ~PoolScope() { tls_pool = saved_; }
    PoolScope(const PoolScope &) = delete;
    PoolScope &operator=(const PoolScope &) = delete;

  private:
    ThreadPool *saved_;
};

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

} // namespace

ThreadPool::ThreadPool(int threads)
    : threads_(threads > 0 ? threads : defaultThreads())
{
    workers_.reserve(static_cast<size_t>(threads_ - 1));
    try {
        for (int w = 1; w < threads_; ++w) {
            workers_.emplace_back([this] { workerLoop(); });
        }
    } catch (const std::system_error &e) {
        // Join the workers already started before exiting, so no
        // joinable std::thread is left behind to call terminate().
        const size_t started = workers_.size();
        stopWorkers();
        fatal("ThreadPool: cannot start a %d-thread pool (started %zu "
              "worker threads, then: %s); lower FOCUS_THREADS or "
              "--threads",
              threads_, started, e.what());
    }
}

ThreadPool::~ThreadPool()
{
    stopWorkers();
}

void
ThreadPool::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    cv_job_.notify_all();
    for (std::thread &t : workers_) {
        t.join();
    }
}

ThreadPool::Job *
ThreadPool::openJob() const
{
    for (Job *job : jobs_) {
        if (job->cursor.load(std::memory_order_relaxed) < job->n) {
            return job;
        }
    }
    return nullptr;
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
        Job *job = nullptr;
        ++idle_;
        cv_job_.wait(lk, [&] {
            job = openJob();
            return stop_ || job != nullptr;
        });
        --idle_;
        if (stop_) {
            return;
        }
        // Counted under the same lock the caller takes to unpublish
        // the job, so the caller's join waits for this worker.
        ++job->helpers;
        lk.unlock();
        {
            obs::TraceSpan span("pool.worker.job");
            runJob(*job);
        }
        lk.lock();
        if (--job->helpers == 0) {
            cv_done_.notify_all();
        }
    }
}

void
ThreadPool::runJob(Job &job)
{
    PoolScope scope(this);
    for (;;) {
        const int64_t i =
            job.cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.n) {
            break;
        }
        try {
            (*job.fn)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lk(m_);
            if (job.error_index < 0 || i < job.error_index) {
                job.error_index = i;
                job.error = std::current_exception();
            }
            // Cancel the indices nobody claimed yet.
            job.cursor.store(job.n, std::memory_order_relaxed);
        }
    }
}

void
ThreadPool::parallelFor(int64_t n,
                        const std::function<void(int64_t)> &fn)
{
    if (n <= 0) {
        return;
    }
    // Sched counters: whether a site reaches parallelFor at all (and
    // with how many tasks) depends on pool width and nesting, so
    // these are scheduling artifacts, not work totals.
    if (obs::countersEnabled()) {
        static obs::Counter &calls =
            obs::MetricsRegistry::instance().schedCounter(
                "pool.parallel_for.calls");
        static obs::Counter &tasks =
            obs::MetricsRegistry::instance().schedCounter(
                "pool.parallel_for.tasks");
        calls.add(1);
        tasks.add(static_cast<uint64_t>(n));
    }
    obs::TraceSpan span("pool.parallelFor");
    if (threads_ == 1 || (tls_pool != nullptr && tls_pool != this)) {
        // Serial: no threads, no cursor, exceptions propagate
        // directly.  The region is marked as this pool's, so a
        // parallelFor nested in it on any other pool (a wider global
        // pool under a one-thread probe pool, say) stays inline too.
        PoolScope scope(this);
        for (int64_t i = 0; i < n; ++i) {
            fn(i);
        }
        return;
    }
    if (n == 1) {
        // A single index carries no parallelism of its own, so run
        // it without publishing a job and without marking a region:
        // at top level, a nested parallelFor (e.g. the per-sample
        // layer under a one-cell experiment grid) still fans out.
        fn(0);
        return;
    }

    Job job;
    job.fn = &fn;
    job.n = n;
    int wake = 0;
    {
        std::lock_guard<std::mutex> lk(m_);
        jobs_.push_back(&job);
        wake = static_cast<int>(
            std::min<int64_t>(idle_, n - 1));
    }
    for (int w = 0; w < wake; ++w) {
        cv_job_.notify_one();
    }

    runJob(job); // the caller runs its own indices, then only waits

    std::unique_lock<std::mutex> lk(m_);
    // Unpublish first: no worker may join past this point.
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    cv_done_.wait(lk, [&] { return job.helpers == 0; });
    if (job.error) {
        std::rethrow_exception(job.error);
    }
}

bool
ThreadPool::inParallelRegion()
{
    return tls_pool != nullptr;
}

int
ThreadPool::defaultThreads()
{
    const char *env = std::getenv("FOCUS_THREADS");
    if (env != nullptr && *env != '\0') {
        // A typo must not silently become the core count.
        return parsePositiveInt(env, "FOCUS_THREADS");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1u ? static_cast<int>(hw) : 1;
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lk(g_pool_mutex);
    if (!g_pool) {
        g_pool = std::make_unique<ThreadPool>();
    }
    return *g_pool;
}

void
ThreadPool::setGlobalThreads(int threads)
{
    std::lock_guard<std::mutex> lk(g_pool_mutex);
    g_pool = std::make_unique<ThreadPool>(threads);
}

} // namespace focus
