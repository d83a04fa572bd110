#include "server/job_scheduler.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/workload.hh"
#include "fault/fault.hh"
#include "genomics/io.hh"
#include "obs/obs.hh"
#include "util/argparse.hh"
#include "util/logging.hh"

namespace iracc {
namespace server {

namespace {

const char *
statusName(RunStatus s)
{
    return runStatusName(s);
}

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
    uint64_t id = 0;
    std::string tenant;
    JobSpec spec;

    JobState state = JobState::Queued;
    std::atomic<bool> cancelRequested{false};
    bool cancelled = false;
    std::string status;
    std::string error;

    uint64_t contigsDone = 0;
    uint64_t contigsTotal = 0;
    uint64_t targets = 0;
    uint64_t readsConsidered = 0;
    uint64_t readsRealigned = 0;
    double seconds = 0.0;
    double wallSeconds = 0.0;
    std::string outPath;
    std::string postmortemPath;
    std::vector<ProgressEvent> progress;

    std::chrono::steady_clock::time_point enqueuedAt;
};

JobScheduler::JobScheduler(JobSchedulerConfig config)
    : cfg(std::move(config))
{
    fatal_if(cfg.workers == 0, "job scheduler needs >= 1 worker");
    // One backend -- and for accelerated backends one CardFleet --
    // shared by every tenant's jobs.  The per-job knobs (threads,
    // seed, cancel token, progress sink) ride in the per-run
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
        if (kv.second->tenant == tenant &&
            kv.second->state == JobState::Running) {
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
    job->id = nextJobId++;
    job->tenant = tenant;
    job->spec = std::move(spec);
    job->outPath = job->spec.outPath;
    job->enqueuedAt = std::chrono::steady_clock::now();
    JobRecord *ptr = job.get();
    jobs[job->id] = std::move(job);
    queues[tenant].push_back(ptr);
    ++queuedCount;

    adm.accepted = true;
    adm.jobId = ptr->id;
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
        job->state = JobState::Running;
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
    // Load (or synthesize) the dataset outside the scheduler lock.
    // File jobs load only the reference here: their reads are
    // pulled off disk contig-by-contig through the streaming batch
    // source below, so a job's peak memory is bounded by the
    // largest contig's read set, not the file size -- and a
    // malformed record fails that one job with a machine-readable
    // error instead of taking the daemon down the way the old
    // readSamLite (fatal on parse error) did.
    ReferenceGenome ref;
    std::vector<Read> reads;
    std::string load_error;
    const JobSpec &spec = job->spec;
    const bool file_job = spec.synthScale <= 0;
    const bool want_out = !spec.outPath.empty();
    std::ofstream out;
    if (!file_job && want_out) {
        // An unwritable output fails the job before the workload
        // is synthesized.
        out.open(spec.outPath);
        if (!out)
            load_error = "cannot write '" + spec.outPath + "'";
    }
    if (!file_job && load_error.empty()) {
        WorkloadParams params;
        params.seed = spec.synthSeed;
        params.scaleDivisor = spec.synthScale;
        params.coverage = spec.synthCoverage;
        params.chromosomes = spec.synthChromosomes;
        GenomeWorkload wl = buildWorkload(params);
        ref = std::move(wl.reference);
        for (const auto &chr : wl.chromosomes) {
            reads.insert(reads.end(), chr.reads.begin(),
                         chr.reads.end());
        }
    } else if (file_job) {
        std::ifstream fa(spec.refPath);
        if (!fa) {
            load_error =
                "cannot open reference '" + spec.refPath + "'";
        } else {
            ref = readFasta(fa);
        }
    }
    if (!load_error.empty()) {
        std::lock_guard<std::mutex> lock(mu);
        job->error = load_error;
        job->status = statusName(RunStatus::Failed);
        finishJob(job, JobState::Done);
        return;
    }

    RealignJobConfig run_cfg;
    run_cfg.threads = spec.jobThreads;
    if (spec.seed != 0)
        run_cfg.seed = spec.seed;
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
            ev.status = statusName(p.status);
            ev.targets = p.targets;
            ev.vtime = p.vtime;
            ev.skipped = p.skipped;
            job->progress.push_back(std::move(ev));
            job->contigsDone = p.contigsDone;
            job->contigsTotal = p.contigsTotal;
        }
        if (cfg.metrics)
            cfg.metrics->counter("server.contigs_completed").add();
        if (cfg.onProgress)
            cfg.onProgress(job->id, p);
    };

    RealignJobResult result;
    std::string run_error;
    if (file_job) {
        // Streamed ingest: realigned groups are appended to the
        // output as they finish, so the job never holds more than
        // one thread-group of contigs in memory.  A parse failure
        // or a cancellation removes the partial output -- callers
        // either get the complete byte-exact file or nothing.
        std::ifstream sam(spec.readsPath);
        if (!sam) {
            run_error =
                "cannot open reads '" + spec.readsPath + "'";
        } else if (want_out) {
            out.open(spec.outPath);
            if (!out)
                run_error = "cannot write '" + spec.outPath + "'";
        }
        if (run_error.empty()) {
            SamLiteBatchSource source(sam, ref);
            StreamRealignResult sr = session->runStreamed(
                ref, source,
                [&](std::vector<Read> &group) {
                    if (want_out)
                        writeSamLite(out, ref, group);
                },
                run_cfg);
            result = std::move(sr.job);
            if (!sr.parseOk) {
                run_error = std::string("stream parse error [") +
                            streamErrorName(sr.parseError.code) +
                            "]: " + sr.parseError.describe();
            }
            if (want_out && (!sr.parseOk || result.cancelled)) {
                out.close();
                removePartialOutput(spec.outPath);
            } else if (want_out && !closeOutput(out, spec.outPath)) {
                run_error = "cannot write '" + spec.outPath + "'";
            }
        }
    } else {
        result = session->run(ref, reads, run_cfg);
        if (want_out && result.cancelled) {
            out.close();
            removePartialOutput(spec.outPath);
        } else if (want_out) {
            writeSamLite(out, ref, reads);
            if (!closeOutput(out, spec.outPath))
                run_error = "cannot write '" + spec.outPath + "'";
        }
    }

    std::lock_guard<std::mutex> lock(mu);
    job->targets = result.stats.targets;
    job->readsConsidered = result.stats.readsConsidered;
    job->readsRealigned = result.stats.readsRealigned;
    job->seconds = result.seconds;
    job->wallSeconds = result.wallSeconds;
    job->postmortemPath = result.postmortemPath;
    job->cancelled = result.cancelled;
    job->status = statusName(result.status);
    if (!run_error.empty()) {
        job->error = run_error;
        job->status = statusName(RunStatus::Failed);
    }
    finishJob(job, result.cancelled ? JobState::Cancelled
                                    : JobState::Done);
}

void
JobScheduler::finishJob(JobRecord *job, JobState state)
{
    // Caller holds mu.
    job->state = state;
    if (job->state == JobState::Cancelled) {
        bumpTenantCounter(job->tenant, "cancelled");
    } else if (job->error.empty() && job->status == "ok") {
        bumpTenantCounter(job->tenant, "completed");
    } else if (job->status == "degraded") {
        bumpTenantCounter(job->tenant, "completed");
        if (cfg.metrics)
            cfg.metrics->counter("server.jobs_degraded").add();
    } else {
        bumpTenantCounter(job->tenant, "failed");
    }
    if (runningCount > 0)
        --runningCount;
    if (cfg.metrics) {
        cfg.metrics->gauge("server.jobs_running")
            .set(static_cast<int64_t>(runningCount));
        cfg.metrics->histogram("server.job.run_ns")
            .record(obs::nanos(job->wallSeconds));
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
    switch (job->state) {
    case JobState::Queued: {
        auto &q = queues[job->tenant];
        q.erase(std::remove(q.begin(), q.end(), job), q.end());
        --queuedCount;
        if (cfg.metrics) {
            cfg.metrics->gauge("server.queue_depth")
                .set(static_cast<int64_t>(queuedCount));
        }
        job->cancelled = true;
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
    JobView v;
    v.id = job.id;
    v.tenant = job.tenant;
    v.state = job.state;
    v.status = job.status;
    v.cancelled = job.cancelled;
    v.error = job.error;
    v.contigsDone = job.contigsDone;
    v.contigsTotal = job.contigsTotal;
    v.targets = job.targets;
    v.readsConsidered = job.readsConsidered;
    v.readsRealigned = job.readsRealigned;
    v.seconds = job.seconds;
    v.wallSeconds = job.wallSeconds;
    v.outPath = job.outPath;
    v.postmortemPath = job.postmortemPath;
    for (const ProgressEvent &p : job.progress) {
        if (p.seq > progress_since)
            v.progress.push_back(p);
    }
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
        return job->state == JobState::Done ||
               job->state == JobState::Cancelled;
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
                    job->cancelled = true;
                    ++runningCount;
                    finishJob(job, JobState::Cancelled);
                }
                kv.second.clear();
            }
            for (auto &kv : jobs) {
                if (kv.second->state == JobState::Running) {
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
