/**
 * @file
 * Job-level scheduling: the layer the ROADMAP predicted when
 * RealignSession grew contig-level concurrency -- a scheduler over
 * *jobs* from many tenants, multiplexed onto one shared
 * accel::CardFleet.
 *
 * One JobScheduler owns one RealignSession (hence one backend and,
 * for accelerated backends, one CardFleet): every admitted job
 * runs through that session, so concurrent tenants draw per-contig
 * FleetLeases from the same card roster exactly like concurrent
 * contigs of one job already did.  Results stay bit-identical to a
 * solo run because a lease materializes private per-card virtual
 * timelines -- tenancy changes *when* a job runs, never what it
 * computes (asserted by tests/server_test.cc).
 *
 * Scheduling model:
 *  - per-tenant FIFO queues, served round-robin across tenants
 *    with pending work (fair share: a tenant that submits 50 jobs
 *    cannot starve a tenant that submits one);
 *  - admission control: each tenant may have at most
 *    maxInFlightPerTenant jobs queued-or-running and the whole
 *    server at most maxQueuedTotal queued; an over-quota submit is
 *    *rejected* with a backpressure answer (retry_after_ms), never
 *    queued unboundedly;
 *  - cooperative cancellation: cancelling a queued job removes it
 *    immediately; cancelling a running job trips its
 *    RealignJobConfig::cancel token, the job skips its remaining
 *    contigs, and the worker -- and its fleet capacity -- come
 *    free at the next contig boundary;
 *  - per-contig progress events (RealignJobProgress, carrying the
 *    flight recorder's contig/vtime coordinates) accumulate on the
 *    job record for the status poll to stream.
 *
 * All server.* metrics land in the registry passed via config (see
 * docs/OBSERVABILITY.md "Server metrics").
 */

#ifndef IRACC_SERVER_JOB_SCHEDULER_HH
#define IRACC_SERVER_JOB_SCHEDULER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/realign_job.hh"
#include "server/protocol.hh"

namespace iracc {

namespace obs {
class MetricsRegistry;
}

namespace server {

/** Admission verdict of one submit. */
struct Admission
{
    bool accepted = false;
    uint64_t jobId = 0;

    /** Rejected: "backpressure", "shutting-down" or "bad-path" (a
     *  file job's --ref/--reads cannot be opened or its --out
     *  directory does not exist). */
    std::string reason;

    /** Rejected: human-readable detail (names the bad path). */
    std::string error;
    uint64_t retryAfterMs = 0;

    /** Tenant jobs in flight (queued + running) after the call. */
    uint64_t tenantInFlight = 0;
    uint64_t tenantQuota = 0;
};

struct JobSchedulerConfig
{
    /** Concurrent jobs (worker threads). */
    uint32_t workers = 2;

    /** Registry backend every job runs on ("iracc", "native"...). */
    std::string backend = "iracc";

    /** Fleet shape shared by all tenants (accelerated backends). */
    uint32_t cards = 1;
    bool stealing = true;

    /** Admission: max queued-or-running jobs per tenant. */
    uint32_t maxInFlightPerTenant = 8;

    /** Admission: max queued jobs over all tenants. */
    uint32_t maxQueuedTotal = 64;

    /** Back-off hint carried in backpressure responses. */
    uint64_t retryAfterMs = 250;

    /** server.* metrics sink (may be null). */
    obs::MetricsRegistry *metrics = nullptr;

    /** Post-mortem bundle directory for Degraded/Failed jobs
     *  (empty = no bundles). */
    std::string postmortemDir;

    /**
     * Test/observer hook: invoked after each progress event is
     * recorded, outside the scheduler lock, from the worker
     * thread.  Cancelling the job from inside the hook is legal --
     * that is how the cancellation tests interrupt a job at a
     * deterministic contig boundary.
     */
    std::function<void(uint64_t jobId, const RealignJobProgress &)>
        onProgress;
};

/**
 * The multi-tenant job scheduler.  Construction builds the shared
 * backend; start() launches the workers (tests submit before
 * start() to pin the dequeue order).  Thread-safe throughout.
 */
class JobScheduler
{
  public:
    explicit JobScheduler(JobSchedulerConfig config);
    ~JobScheduler();

    JobScheduler(const JobScheduler &) = delete;
    JobScheduler &operator=(const JobScheduler &) = delete;

    /** Launch the worker threads (idempotent). */
    void start();

    /** Admit or reject one job. */
    Admission submit(const std::string &tenant, JobSpec spec);

    /**
     * Request cancellation.  Queued jobs cancel immediately;
     * running jobs cancel cooperatively at the next contig
     * boundary.  @return false for unknown job ids; true
     * otherwise (including already-terminal jobs, a no-op).
     */
    bool cancel(uint64_t job_id);

    /** Snapshot one job (progress events with seq >
     *  progress_since).  @return false for unknown ids. */
    bool query(uint64_t job_id, uint64_t progress_since,
               JobView *out) const;

    /** Block until @p job_id is terminal (Done/Cancelled).
     *  @return false for unknown ids. */
    bool wait(uint64_t job_id, JobView *out);

    /**
     * Stop admitting; when @p drain, run every queued job to
     * completion first, otherwise cancel queued jobs and trip
     * running ones.  Joins the workers; idempotent.
     */
    void shutdown(bool drain);

    /** Jobs queued right now (all tenants). */
    uint64_t queuedJobs() const;

    /** Jobs currently executing. */
    uint64_t runningJobs() const;

    const JobSchedulerConfig &config() const { return cfg; }

  private:
    struct JobRecord;

    void workerLoop();
    JobRecord *pickNextLocked();
    void runJob(JobRecord *job);
    void finishJob(JobRecord *job, JobState state);
    JobView viewLocked(const JobRecord &job,
                       uint64_t progress_since) const;
    void bumpTenantCounter(const std::string &tenant,
                           const char *what);

    JobSchedulerConfig cfg;
    std::unique_ptr<RealignSession> session;

    mutable std::mutex mu;
    std::condition_variable workAvailable;
    std::condition_variable jobTerminal;

    /** All jobs ever admitted, by id (results retained). */
    std::map<uint64_t, std::unique_ptr<JobRecord>> jobs;

    /** Per-tenant FIFO of queued jobs, tenant name ascending. */
    std::map<std::string, std::deque<JobRecord *>> queues;

    /** Fair-share cursor: the tenant served last round. */
    std::string lastServedTenant;

    uint64_t nextJobId = 1;
    uint64_t queuedCount = 0;
    uint64_t runningCount = 0;
    bool accepting = true;
    bool stopping = false;
    bool started = false;
    std::vector<std::thread> workers;
};

} // namespace server
} // namespace iracc

#endif // IRACC_SERVER_JOB_SCHEDULER_HH
