/**
 * @file
 * The host executor: one process-wide set of worker threads behind
 * every fork-join in the library (contigs of a job, Prepare,
 * software Execute, the accelerated datapath precompute).
 *
 * Callers give each fork-join a width -- the most indices it may run
 * at once -- instead of building a pool of that size.  The calling
 * thread always claims indices too, and a fork-join waits only for
 * helpers that actually claimed an index, so a parallelFor called
 * from inside another parallelFor cannot deadlock: a large contig's
 * targets spread over whichever workers are idle.
 */

#ifndef IRACC_UTIL_THREAD_POOL_HH
#define IRACC_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace iracc {

/**
 * Optional per-call instrumentation of one fork-join.  The util
 * layer cannot depend on src/obs, so observability attaches through
 * this neutral struct (see obs::instrumentThreadPool); without
 * hooks -- the default -- parallelFor takes no timestamps.
 * Callbacks run on whichever thread claimed the index and must be
 * thread-safe.
 */
struct ThreadPoolHooks
{
    /**
     * After an index is claimed, before it runs.
     * @p wait_seconds  time since parallelFor was called
     * @p unclaimed     indices not yet claimed
     */
    std::function<void(double wait_seconds, size_t unclaimed)> onClaim;

    /** After fn(i) returns; @p busy_seconds = its execution time. */
    std::function<void(double busy_seconds)> onDone;

    /**
     * On the calling thread, once no index is left to claim and
     * before it waits for the helpers still running theirs.  Not
     * called when the fork-join runs inline.
     */
    std::function<void()> onJoin;
};

/**
 * A nest-safe fork-join executor.  Workers start on the first
 * fork-join that needs a helper and then sleep until the next one.
 */
class ThreadPool
{
  public:
    /**
     * The process-wide executor: hardware_concurrency() - 1
     * workers (at least 1), since the calling thread always works
     * too.  Never destroyed, so no worker is joined during static
     * destruction.
     */
    static ThreadPool &shared();

    /** @param num_workers helper threads; must be >= 1 */
    explicit ThreadPool(size_t num_workers);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Run fn(i) for every i in [0, n) and return when all have
     * finished.  At most min(@p width, n, numThreads() + 1) indices
     * run at once; width <= 1 runs every index on the caller, with
     * no queue and no allocation.  Indices are claimed one at a
     * time, so the assignment of indices to threads varies run to
     * run: fn must write only to its own index's slot.
     */
    void parallelFor(size_t n, size_t width,
                     const std::function<void(size_t)> &fn,
                     const ThreadPoolHooks *hooks = nullptr);

    /** Helper threads (started lazily). */
    size_t numThreads() const { return numWorkers; }

  private:
    struct ForkJoin;

    void post(const std::shared_ptr<ForkJoin> &job, size_t tickets);
    void workerLoop();

    const size_t numWorkers;
    std::mutex mtx;
    std::deque<std::shared_ptr<ForkJoin>> tickets; ///< guarded by mtx
    bool stopping = false;                         ///< guarded by mtx
    std::condition_variable ticketAvailable;
    std::vector<std::thread> workers; ///< started lazily, under mtx
};

} // namespace iracc

#endif // IRACC_UTIL_THREAD_POOL_HH
