#include "util/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "util/logging.hh"

namespace iracc {

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

} // namespace

/**
 * One fork-join's shared state.  Tickets hold it by shared_ptr, so
 * a ticket dequeued after the fork-join returned finds every index
 * claimed and drops it without touching the caller's stack.
 */
struct ThreadPool::ForkJoin
{
    ForkJoin(size_t n, const std::function<void(size_t)> &fn,
             const ThreadPoolHooks *hooks)
        : n(n), fn(fn), hooks(hooks)
    {
        if (hooks)
            started = Clock::now();
    }

    /** Claim and run indices until none is left. */
    void
    drain()
    {
        for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            run(i);
            // The last finisher wakes the caller, which may then
            // return: fn and hooks are not touched again.
            if (done.fetch_add(1) + 1 == n) {
                std::lock_guard<std::mutex> lock(mtx);
                finished = true;
                allDone.notify_one();
            }
        }
    }

    void
    run(size_t i)
    {
        if (!hooks) {
            fn(i);
            return;
        }
        const Clock::time_point t0 = Clock::now();
        if (hooks->onClaim) {
            const size_t claimed = std::min(n, next.load());
            hooks->onClaim(seconds(t0 - started), n - claimed);
        }
        fn(i);
        if (hooks->onDone)
            hooks->onDone(seconds(Clock::now() - t0));
    }

    const size_t n;
    const std::function<void(size_t)> &fn;
    const ThreadPoolHooks *const hooks;
    Clock::time_point started;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mtx;
    bool finished = false; ///< every index ran; guarded by mtx
    std::condition_variable allDone;
};

ThreadPool &
ThreadPool::shared()
{
    // hardware_concurrency() may report 0 (unknown): one worker.
    static ThreadPool *pool = new ThreadPool(
        std::max(2u, std::thread::hardware_concurrency()) - 1);
    return *pool;
}

ThreadPool::ThreadPool(size_t num_workers) : numWorkers(num_workers)
{
    panic_if(num_workers == 0, "ThreadPool requires >= 1 worker");
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
    }
    ticketAvailable.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::parallelFor(size_t n, size_t width,
                        const std::function<void(size_t)> &fn,
                        const ThreadPoolHooks *hooks)
{
    width = std::min({width, n, numWorkers + 1});
    if (width <= 1) {
        ForkJoin(n, fn, hooks).drain();
        return;
    }
    auto job = std::make_shared<ForkJoin>(n, fn, hooks);
    post(job, width - 1);
    job->drain();
    if (hooks && hooks->onJoin)
        hooks->onJoin();
    std::unique_lock<std::mutex> lock(job->mtx);
    job->allDone.wait(lock, [&] { return job->finished; });
}

void
ThreadPool::post(const std::shared_ptr<ForkJoin> &job, size_t count)
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        while (workers.size() < numWorkers)
            workers.emplace_back([this] { workerLoop(); });
        for (size_t t = 0; t < count; ++t)
            tickets.push_back(job);
    }
    for (size_t t = 0; t < count; ++t)
        ticketAvailable.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::shared_ptr<ForkJoin> job;
        {
            std::unique_lock<std::mutex> lock(mtx);
            ticketAvailable.wait(lock, [this] {
                return stopping || !tickets.empty();
            });
            if (stopping)
                return;
            job = std::move(tickets.front());
            tickets.pop_front();
        }
        job->drain();
    }
}

} // namespace iracc
