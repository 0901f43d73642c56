#include "runtime/thread_pool.h"

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

thread_local bool tls_in_parallel = false;

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

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0;
    for (;;) {
        Job *job = nullptr;
        {
            std::unique_lock<std::mutex> lk(m_);
            cv_job_.wait(lk,
                         [&] { return stop_ || epoch_ != seen; });
            if (stop_) {
                return;
            }
            seen = epoch_;
            job = job_;
            if (!job) {
                // The job finished before this worker woke up.
                continue;
            }
            ++job->active;
        }
        {
            obs::TraceSpan span("pool.worker.job");
            runJob(*job);
        }
        {
            std::lock_guard<std::mutex> lk(m_);
            --job->active;
        }
        cv_done_.notify_all();
    }
}

void
ThreadPool::runJob(Job &job)
{
    const bool was_nested = tls_in_parallel;
    tls_in_parallel = true;
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
    tls_in_parallel = was_nested;
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
    if (threads_ == 1 || tls_in_parallel) {
        // Serial fallback: no threads, no cursor, exceptions
        // propagate directly.  The region is still marked so that a
        // nested parallelFor — even on a wider pool — stays inline:
        // the outermost parallelFor decides the parallelism.
        const bool was_nested = tls_in_parallel;
        tls_in_parallel = true;
        try {
            for (int64_t i = 0; i < n; ++i) {
                fn(i);
            }
        } catch (...) {
            tls_in_parallel = was_nested;
            throw;
        }
        tls_in_parallel = was_nested;
        return;
    }
    if (n == 1) {
        // A single index carries no outer parallelism, so run it
        // inline *without* marking the region: a nested parallelFor
        // (e.g. the per-sample layer under a one-cell experiment
        // grid) may still fan out across this pool.
        fn(0);
        return;
    }

    Job job;
    job.fn = &fn;
    job.n = n;
    {
        std::lock_guard<std::mutex> lk(m_);
        job_ = &job;
        ++epoch_;
    }
    cv_job_.notify_all();

    runJob(job); // the caller is worker 0

    std::unique_lock<std::mutex> lk(m_);
    job_ = nullptr; // no new worker may join past this point
    cv_done_.wait(lk, [&] { return job.active == 0; });
    if (job.error) {
        std::rethrow_exception(job.error);
    }
}

bool
ThreadPool::inParallelRegion()
{
    return tls_in_parallel;
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
