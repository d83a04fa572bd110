#include "server/job_scheduler.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/file_pass.hh"
#include "core/workload.hh"
#include "fault/fault.hh"
#include "genomics/io.hh"
#include "obs/obs.hh"
#include "util/argparse.hh"
#include "util/logging.hh"

namespace iracc {
namespace server {

namespace {

/**
 * Why a file job's paths cannot work, or "" when they can: --ref
 * and --reads must open and the --out directory must exist.
 * Checked at submit, so a mistyped path is rejected before the job
 * queues instead of failing it when it runs.
 */
std::string
badPathError(const JobSpec &spec)
{
    if (spec.synthScale > 0)
        return "";
    if (!std::ifstream(spec.refPath))
        return "cannot open reference '" + spec.refPath + "'";
    if (!std::ifstream(spec.readsPath))
        return "cannot open reads '" + spec.readsPath + "'";
    const std::filesystem::path dir =
        std::filesystem::path(spec.outPath).parent_path();
    std::error_code ec;
    if (!dir.empty() && !std::filesystem::is_directory(dir, ec))
        return "no directory '" + dir.string() + "' for output '" +
               spec.outPath + "'";
    return "";
}

} // namespace

struct JobScheduler::JobRecord
{
    /** Everything status and result report, progress included. */
    JobView view;
    JobSpec spec;
    std::atomic<bool> cancelRequested{false};
    std::chrono::steady_clock::time_point enqueuedAt;
};

JobScheduler::JobScheduler(JobSchedulerConfig config)
    : cfg(std::move(config))
{
    fatal_if(cfg.workers == 0, "job scheduler needs >= 1 worker");
    // One backend -- and for accelerated backends one CardFleet --
    // shared by every tenant's jobs.  The per-job knobs (threads,
    // cancel token, progress sink) ride in the per-run
    // RealignJobConfig override.
    session = std::make_unique<RealignSession>(
        makeBackend(cfg.backend, false, false, cfg.cards,
                    cfg.stealing),
        RealignJobConfig{});
}

JobScheduler::~JobScheduler() { shutdown(false); }

void
JobScheduler::start()
{
    std::lock_guard<std::mutex> lock(mu);
    if (started || stopping)
        return;
    started = true;
    workers.reserve(cfg.workers);
    for (uint32_t i = 0; i < cfg.workers; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

void
JobScheduler::bumpTenantCounter(const std::string &tenant,
                                const char *what)
{
    if (!cfg.metrics)
        return;
    cfg.metrics->counter(std::string("server.jobs_") + what).add();
    cfg.metrics
        ->counter("server.tenant." + tenant + "." + what)
        .add();
}

Admission
JobScheduler::submit(const std::string &tenant, JobSpec spec)
{
    Admission adm;
    adm.tenantQuota = cfg.maxInFlightPerTenant;
    adm.error = badPathError(spec);
    std::lock_guard<std::mutex> lock(mu);
    if (!adm.error.empty()) {
        adm.reason = "bad-path";
        bumpTenantCounter(tenant, "rejected");
        return adm;
    }
    if (!accepting) {
        adm.reason = "shutting-down";
        adm.error = "server is shutting down";
        bumpTenantCounter(tenant, "rejected");
        return adm;
    }

    // Tenant quota counts queued *and* running jobs, so the
    // admission answer does not depend on whether a worker
    // happened to dequeue the previous job already.
    uint64_t in_flight = queues[tenant].size();
    for (const auto &kv : jobs) {
        if (kv.second->view.tenant == tenant &&
            kv.second->view.state == JobState::Running) {
            ++in_flight;
        }
    }
    adm.tenantInFlight = in_flight;
    if (in_flight >= cfg.maxInFlightPerTenant ||
        queuedCount >= cfg.maxQueuedTotal) {
        adm.reason = "backpressure";
        adm.error = "tenant over quota or queue full; retry after "
                    "retry_after_ms";
        adm.retryAfterMs = cfg.retryAfterMs;
        bumpTenantCounter(tenant, "rejected");
        return adm;
    }

    auto job = std::make_unique<JobRecord>();
    job->view.id = nextJobId++;
    job->view.tenant = tenant;
    job->spec = std::move(spec);
    job->view.outPath = job->spec.outPath;
    job->enqueuedAt = std::chrono::steady_clock::now();
    JobRecord *ptr = job.get();
    jobs[job->view.id] = std::move(job);
    queues[tenant].push_back(ptr);
    ++queuedCount;

    adm.accepted = true;
    adm.jobId = ptr->view.id;
    adm.tenantInFlight = in_flight + 1;
    bumpTenantCounter(tenant, "submitted");
    if (cfg.metrics) {
        cfg.metrics->gauge("server.queue_depth")
            .set(static_cast<int64_t>(queuedCount));
    }
    workAvailable.notify_one();
    return adm;
}

JobScheduler::JobRecord *
JobScheduler::pickNextLocked()
{
    if (queuedCount == 0 || queues.empty())
        return nullptr;
    // Round-robin across tenants: resume strictly after the tenant
    // served last, wrapping -- a tenant with a deep queue cannot
    // starve the others.
    auto it = queues.upper_bound(lastServedTenant);
    for (size_t scanned = 0; scanned <= queues.size(); ++scanned) {
        if (it == queues.end())
            it = queues.begin();
        if (!it->second.empty()) {
            JobRecord *job = it->second.front();
            it->second.pop_front();
            lastServedTenant = it->first;
            --queuedCount;
            if (cfg.metrics) {
                cfg.metrics->gauge("server.queue_depth")
                    .set(static_cast<int64_t>(queuedCount));
            }
            return job;
        }
        ++it;
    }
    return nullptr;
}

void
JobScheduler::workerLoop()
{
    for (;;) {
        std::unique_lock<std::mutex> lock(mu);
        workAvailable.wait(lock, [this] {
            return stopping || queuedCount > 0;
        });
        JobRecord *job = pickNextLocked();
        if (job == nullptr) {
            if (stopping)
                return;
            continue;
        }
        job->view.state = JobState::Running;
        ++runningCount;
        if (cfg.metrics) {
            cfg.metrics->gauge("server.jobs_running")
                .set(static_cast<int64_t>(runningCount));
            const std::chrono::duration<double> waited =
                std::chrono::steady_clock::now() - job->enqueuedAt;
            cfg.metrics->histogram("server.job.queue_wait_ns")
                .record(obs::nanos(waited.count()));
        }
        lock.unlock();
        runJob(job);
    }
}

void
JobScheduler::runJob(JobRecord *job)
{
    const JobSpec &spec = job->spec;
    RealignJobConfig run_cfg;
    run_cfg.threads = spec.jobThreads;
    run_cfg.cancel = &job->cancelRequested;
    run_cfg.postmortemDir = cfg.postmortemDir;
    obs::Observability ob;
    ob.metrics = cfg.metrics;
    if (cfg.metrics)
        run_cfg.obs = &ob;
    run_cfg.onProgress = [this,
                          job](const RealignJobProgress &p) {
        {
            std::lock_guard<std::mutex> lock(mu);
            ProgressEvent ev;
            ev.seq = p.contigsDone;
            ev.contig = p.contig;
            ev.contigsDone = p.contigsDone;
            ev.contigsTotal = p.contigsTotal;
            ev.status = runStatusName(p.status);
            ev.targets = p.targets;
            ev.vtime = p.vtime;
            ev.skipped = p.skipped;
            job->view.progress.push_back(std::move(ev));
            job->view.contigsDone = p.contigsDone;
            job->view.contigsTotal = p.contigsTotal;
        }
        if (cfg.metrics)
            cfg.metrics->counter("server.contigs_completed").add();
        if (cfg.onProgress)
            cfg.onProgress(job->view.id, p);
    };

    // Everything runs outside the scheduler lock.  A file job is
    // one streamed file pass (core/file_pass.hh): its reads are
    // pulled off disk contig by contig, so its peak memory is
    // bounded by the largest contig's read set, and a malformed
    // reference or record fails that one job with an error
    // instead of taking the daemon down.
    RealignJobResult result;
    std::string run_error;
    if (spec.synthScale <= 0) {
        FilePassResult pass =
            runFilePass(*session, spec.refPath, spec.readsPath,
                        spec.outPath, true, run_cfg);
        result = std::move(pass.job);
        run_error = pass.error;
        if (!pass.parseError.ok()) {
            run_error = std::string("stream parse error [") +
                        streamErrorName(pass.parseError.code) +
                        "]: " + pass.parseError.describe();
        }
    } else {
        // An unwritable output fails the job before the workload
        // is synthesized.
        const bool want_out = !spec.outPath.empty();
        std::ofstream out;
        if (want_out)
            out.open(spec.outPath);
        if (want_out && !out) {
            run_error = "cannot write '" + spec.outPath + "'";
        } else {
            WorkloadParams params;
            params.seed = spec.synthSeed;
            params.scaleDivisor = spec.synthScale;
            params.coverage = spec.synthCoverage;
            params.chromosomes = spec.synthChromosomes;
            GenomeWorkload wl = buildWorkload(params);
            std::vector<Read> reads = wl.allReads();
            result = session->run(wl.reference, reads, run_cfg);
            if (want_out && result.cancelled) {
                out.close();
                removePartialOutput(spec.outPath);
            } else if (want_out) {
                writeSamLite(out, wl.reference, reads);
                if (!closeOutput(out, spec.outPath))
                    run_error = "cannot write '" + spec.outPath + "'";
            }
        }
    }

    std::lock_guard<std::mutex> lock(mu);
    job->view.targets = result.stats.targets;
    job->view.readsConsidered = result.stats.readsConsidered;
    job->view.readsRealigned = result.stats.readsRealigned;
    job->view.fpgaSeconds = result.fpgaSeconds;
    job->view.wallSeconds = result.wallSeconds;
    job->view.postmortemPath = result.postmortemPath;
    job->view.cancelled = result.cancelled;
    job->view.status = runStatusName(result.status);
    if (!run_error.empty()) {
        job->view.error = run_error;
        job->view.status = runStatusName(RunStatus::Failed);
    }
    finishJob(job, result.cancelled ? JobState::Cancelled
                                    : JobState::Done);
}

void
JobScheduler::finishJob(JobRecord *job, JobState state)
{
    // Caller holds mu.
    job->view.state = state;
    if (job->view.state == JobState::Cancelled) {
        bumpTenantCounter(job->view.tenant, "cancelled");
    } else if (job->view.error.empty() && job->view.status == "ok") {
        bumpTenantCounter(job->view.tenant, "completed");
    } else if (job->view.status == "degraded") {
        bumpTenantCounter(job->view.tenant, "completed");
        if (cfg.metrics)
            cfg.metrics->counter("server.jobs_degraded").add();
    } else {
        bumpTenantCounter(job->view.tenant, "failed");
    }
    if (runningCount > 0)
        --runningCount;
    if (cfg.metrics) {
        cfg.metrics->gauge("server.jobs_running")
            .set(static_cast<int64_t>(runningCount));
        cfg.metrics->histogram("server.job.run_ns")
            .record(obs::nanos(job->view.wallSeconds));
    }
    jobTerminal.notify_all();
}

bool
JobScheduler::cancel(uint64_t job_id)
{
    std::unique_lock<std::mutex> lock(mu);
    auto it = jobs.find(job_id);
    if (it == jobs.end())
        return false;
    JobRecord *job = it->second.get();
    switch (job->view.state) {
    case JobState::Queued: {
        auto &q = queues[job->view.tenant];
        q.erase(std::remove(q.begin(), q.end(), job), q.end());
        --queuedCount;
        if (cfg.metrics) {
            cfg.metrics->gauge("server.queue_depth")
                .set(static_cast<int64_t>(queuedCount));
        }
        job->view.cancelled = true;
        ++runningCount; // finishJob undoes this; never ran
        finishJob(job, JobState::Cancelled);
        break;
    }
    case JobState::Running:
        // Cooperative: the job skips its remaining contigs and its
        // worker (and fleet capacity) comes free at the next
        // contig boundary.
        job->cancelRequested.store(true,
                                   std::memory_order_relaxed);
        break;
    case JobState::Done:
    case JobState::Cancelled:
        break; // already terminal; cancel is a no-op
    }
    return true;
}

JobView
JobScheduler::viewLocked(const JobRecord &job,
                         uint64_t progress_since) const
{
    JobView v = job.view;
    v.progress.erase(
        std::remove_if(v.progress.begin(), v.progress.end(),
                       [progress_since](const ProgressEvent &p) {
                           return p.seq <= progress_since;
                       }),
        v.progress.end());
    return v;
}

bool
JobScheduler::query(uint64_t job_id, uint64_t progress_since,
                    JobView *out) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = jobs.find(job_id);
    if (it == jobs.end())
        return false;
    *out = viewLocked(*it->second, progress_since);
    return true;
}

bool
JobScheduler::wait(uint64_t job_id, JobView *out)
{
    std::unique_lock<std::mutex> lock(mu);
    auto it = jobs.find(job_id);
    if (it == jobs.end())
        return false;
    JobRecord *job = it->second.get();
    jobTerminal.wait(lock, [job] {
        return job->view.state == JobState::Done ||
               job->view.state == JobState::Cancelled;
    });
    *out = viewLocked(*job, 0);
    return true;
}

void
JobScheduler::shutdown(bool drain)
{
    {
        std::unique_lock<std::mutex> lock(mu);
        if (stopping && !accepting)
            return;
        accepting = false;
        if (drain && !started) {
            // Draining without workers would wait forever.
            lock.unlock();
            start();
            lock.lock();
        }
        if (!drain) {
            // Cancel everything: queued jobs terminally, running
            // jobs cooperatively.
            for (auto &kv : queues) {
                for (JobRecord *job : kv.second) {
                    --queuedCount;
                    job->view.cancelled = true;
                    ++runningCount;
                    finishJob(job, JobState::Cancelled);
                }
                kv.second.clear();
            }
            for (auto &kv : jobs) {
                if (kv.second->view.state == JobState::Running) {
                    kv.second->cancelRequested.store(
                        true, std::memory_order_relaxed);
                }
            }
        }
        stopping = true;
        workAvailable.notify_all();
    }
    for (std::thread &t : workers)
        t.join();
    workers.clear();
}

uint64_t
JobScheduler::queuedJobs() const
{
    std::lock_guard<std::mutex> lock(mu);
    return queuedCount;
}

uint64_t
JobScheduler::runningJobs() const
{
    std::lock_guard<std::mutex> lock(mu);
    return runningCount;
}

} // namespace server
} // namespace iracc
