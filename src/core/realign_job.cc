#include "core/realign_job.hh"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>

#include "core/postmortem.hh"
#include "obs/flight_recorder.hh"
#include "obs/obs.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "util/timer.hh"

namespace iracc {

RealignSession::RealignSession(
    std::unique_ptr<const RealignerBackend> backend,
    RealignJobConfig config)
    : be(std::move(backend)), cfg(config)
{
    fatal_if(!be, "RealignSession needs a backend");
    fatal_if(cfg.threads == 0, "realign job needs >= 1 thread");
}

RealignJobResult
RealignSession::run(const ReferenceGenome &ref,
                    std::vector<Read> &reads) const
{
    return run(ref, reads, cfg);
}

RealignJobResult
RealignSession::run(const ReferenceGenome &ref,
                    const std::vector<int32_t> &contigs,
                    std::vector<Read> &reads) const
{
    return run(ref, contigs, reads, cfg);
}

RealignJobResult
RealignSession::run(const ReferenceGenome &ref,
                    std::vector<Read> &reads,
                    const RealignJobConfig &job_cfg) const
{
    std::vector<int32_t> contigs;
    contigs.reserve(8);
    for (const Read &r : reads) {
        if (!std::binary_search(contigs.begin(), contigs.end(),
                                r.contig)) {
            contigs.insert(std::lower_bound(contigs.begin(),
                                            contigs.end(), r.contig),
                           r.contig);
        }
    }
    return run(ref, contigs, reads, job_cfg);
}

RealignJobResult
RealignSession::run(const ReferenceGenome &ref,
                    const std::vector<int32_t> &contigs,
                    std::vector<Read> &reads,
                    const RealignJobConfig &job_cfg) const
{
    // Shadow the session config on purpose: everything below reads
    // the per-call configuration.
    const RealignJobConfig &cfg = job_cfg;
    fatal_if(cfg.threads == 0, "realign job needs >= 1 thread");
    Timer wall;
    RealignJobResult job;

    // The submitting thread gets driver coordinates (contig -1)
    // for the job-lifecycle events; each contig's worker installs
    // its own context in runOne below.
    obs::FlightContext driverCtx(-1);
    if (contigs.empty()) {
        job.wallSeconds = wall.seconds();
        return job;
    }

    // The requested contigs in ascending order, each once; a
    // requested contig with no reads is realigned too.
    std::vector<int32_t> order(contigs);
    std::sort(order.begin(), order.end());
    order.erase(std::unique(order.begin(), order.end()), order.end());
    for (int32_t c : order) {
        panic_if(c < 0 || static_cast<size_t>(c) >= ref.numContigs(),
                 "contig index %d out of range (%zu contigs)", c,
                 ref.numContigs());
    }

    // Partition the read set by contig once: one pass over the reads
    // looks up each read's slot in a table indexed by contig id and
    // counts it, then the compact slot list fills vectors of exact
    // size.  Reads on contigs not requested, or outside the genome,
    // are left alone.  Each contig's worker only ever touches its
    // own (disjoint) read indices, so the shared read vector can be
    // mutated concurrently.
    constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();
    std::vector<uint32_t> slotOf(ref.numContigs(), kNoSlot);
    for (size_t i = 0; i < order.size(); ++i)
        slotOf[static_cast<size_t>(order[i])] = static_cast<uint32_t>(i);
    std::vector<std::vector<uint32_t>> byContig(order.size());
    {
        std::vector<uint32_t> slotOfRead(reads.size(), kNoSlot);
        std::vector<size_t> counts(order.size(), 0);
        for (size_t i = 0; i < reads.size(); ++i) {
            const auto c = static_cast<uint32_t>(reads[i].contig);
            if (c < slotOf.size() && slotOf[c] != kNoSlot) {
                slotOfRead[i] = slotOf[c];
                ++counts[slotOf[c]];
            }
        }
        for (size_t s = 0; s < order.size(); ++s)
            byContig[s].reserve(counts[s]);
        for (uint32_t i = 0; i < slotOfRead.size(); ++i) {
            if (slotOfRead[i] != kNoSlot)
                byContig[slotOfRead[i]].push_back(i);
        }
    }

    const FleetConfig *shape = be->fleetShape();
    obs::frEmit(obs::FrSeverity::Info, obs::FrCategory::Job,
                obs::FrCode::JobStart, 0, -1, order.size(),
                reads.size(), shape ? shape->cards : 0,
                shape && shape->stealing ? 1 : 0);

    // Contigs run at most cfg.threads at a time on the shared host
    // executor; their nested Prepare / Execute fork-joins spread
    // over whichever workers are idle.
    const uint32_t width = static_cast<uint32_t>(
        std::min<size_t>(cfg.threads, order.size()));

    // Per-contig results land in preallocated slots and are merged
    // in ascending contig order at the barrier, so the job result
    // is bit-identical for any width.
    obs::Observability *obsv = cfg.obs;
    std::vector<ContigJobResult> slots(order.size());
    // Skip markers for cooperatively cancelled contigs; written by
    // the worker that owned the slot, read after the barrier.
    std::vector<uint8_t> skipped(order.size(), 0);
    std::atomic<uint64_t> contigsDone{0};
    auto notifyProgress = [&](size_t i, bool skip) {
        if (!cfg.onProgress)
            return;
        RealignJobProgress p;
        p.contig = order[i];
        p.contigsDone =
            contigsDone.fetch_add(1, std::memory_order_relaxed) + 1;
        p.contigsTotal = order.size();
        p.skipped = skip;
        if (skip) {
            p.status = RunStatus::Failed;
        } else {
            p.status = slots[i].run.status;
            p.targets = slots[i].run.stats.targets;
            p.vtime = slots[i].run.fleet.busyCycles();
        }
        cfg.onProgress(p);
    };
    auto runOne = [&](size_t i) {
        const int32_t contig = order[i];
        obs::FlightContext fctx(contig);
        slots[i].contig = contig;
        // Cooperative cancellation: a contig that has not started
        // when the token trips is skipped outright -- its reads
        // stay unrealigned (the Failed semantic) and the worker
        // never touches the fleet.
        if (cfg.cancel &&
            cfg.cancel->load(std::memory_order_relaxed)) {
            skipped[i] = 1;
            slots[i].run.status = RunStatus::Failed;
            obs::frEmit(obs::FrSeverity::Warn, obs::FrCategory::Job,
                        obs::FrCode::ContigSkipped, 0, -1,
                        byContig[i].size());
            notifyProgress(i, true);
            return;
        }
        obs::frEmit(obs::FrSeverity::Info, obs::FrCategory::Job,
                    obs::FrCode::ContigStart, 0, -1,
                    byContig[i].size());
        obs::ScopedSpan span(obsv,
                             obsv && obsv->on()
                                 ? "contig " + std::to_string(contig)
                                 : std::string(),
                             "realign.job",
                             "realign.job.contig_ns");
        auto exec = be->makeExecuteStage(width);
        slots[i].run = runContigPipeline(
            ref, contig, reads, be->targetParams(), *exec,
            be->hostThreads(), &byContig[i], obsv);
        obs::frEmit(obs::FrSeverity::Info, obs::FrCategory::Job,
                    obs::FrCode::ContigDone, 0, -1,
                    static_cast<uint64_t>(slots[i].run.status),
                    slots[i].run.stats.targets,
                    slots[i].run.fleet.busyCycles());
        notifyProgress(i, false);
    };

    ThreadPoolHooks hooks;
    if (obsv && obsv->metrics)
        hooks = obs::instrumentThreadPool(*obsv->metrics, "realign.pool");
    // The barrier-wait span measures how long the submitting
    // thread idles at the fork-join point once it has no contig
    // left to claim.
    std::optional<obs::ScopedSpan> barrier;
    hooks.onJoin = [&] {
        barrier.emplace(obsv, "job barrier", "realign.job",
                        "realign.job.barrier_wait_ns");
    };
    ThreadPool::shared().parallelFor(order.size(), width, runOne,
                                     obsv ? &hooks : nullptr);
    barrier.reset();

    obs::frEmit(obs::FrSeverity::Info, obs::FrCategory::Job,
                obs::FrCode::Barrier, 0, -1, order.size());
    if (obsv && obsv->metrics)
        obsv->metrics->counter("realign.job.contigs")
            .add(order.size());

    // Barrier reached: deterministic in-order reduction.
    job.contigs = std::move(slots);
    for (size_t i = 0; i < job.contigs.size(); ++i) {
        if (!skipped[i])
            continue;
        job.cancelled = true;
        job.skippedContigs.push_back(job.contigs[i].contig);
    }
    for (const ContigJobResult &c : job.contigs) {
        job.stats.merge(c.run.stats);
        job.fpgaSeconds += c.run.fpgaSeconds;
        job.criticalPathSeconds =
            std::max(job.criticalPathSeconds, c.run.fpgaSeconds);
        job.execHost.merge(c.run.execHost);
        job.simulated = job.simulated || c.run.simulated;
        // Fleet runs already span one pid per card; stride the
        // contig id so merged traces keep one process per
        // (contig, card).  Single-card runs keep pid = contig.
        job.perf.merge(c.run.perf, static_cast<uint32_t>(c.contig),
                       c.run.perf.pidSpan > 1 ? c.run.perf.pidSpan
                                              : 0);
        job.fleet.merge(c.run.fleet);
        job.recovery.merge(c.run.recovery);
        job.targetLatencyCycles.merge(c.run.targetLatencyCycles);
        job.targetLatencyNanos.merge(c.run.targetLatencyNanos);
        job.status = worseStatus(job.status, c.run.status);
        if (c.run.status == RunStatus::Degraded)
            job.degradedContigs.push_back(c.contig);
        else if (c.run.status == RunStatus::Failed)
            job.failedContigs.push_back(c.contig);
    }
    // Kernel work of the whole job, from the merged stats (exact
    // and kernel-independent, like the stats themselves).
    if (obsv && obsv->metrics) {
        obs::MetricsRegistry &reg = *obsv->metrics;
        reg.counter("realign.whd.comparisons")
            .add(job.stats.whd.comparisons);
        reg.counter("realign.whd.offsets_evaluated")
            .add(job.stats.whd.offsetsEvaluated);
        reg.counter("realign.whd.offsets_swept")
            .add(job.stats.whd.offsetsSwept);
        reg.counter("realign.whd.offsets_pruned")
            .add(job.stats.whd.offsetsPruned);
        // Where the accelerated Execute stage's host time went:
        // the datapath sweep vs. the cycle simulator's replay.
        if (job.simulated) {
            reg.histogram("realign.execute.precompute_ns")
                .record(obs::nanos(job.execHost.precomputeSeconds));
            reg.histogram("realign.execute.replay_ns")
                .record(obs::nanos(job.execHost.replaySeconds));
            reg.counter("realign.execute.sim_events")
                .add(job.execHost.simEvents);
        }
    }
    if (job.cancelled) {
        obs::frEmit(obs::FrSeverity::Warn, obs::FrCategory::Job,
                    obs::FrCode::JobCancelled, 0, -1,
                    job.skippedContigs.size(), order.size());
    }
    obs::frEmit(obs::FrSeverity::Info, obs::FrCategory::Job,
                obs::FrCode::JobDone, 0, -1,
                static_cast<uint64_t>(job.status),
                job.degradedContigs.size(),
                job.failedContigs.size());

    if (!cfg.postmortemDir.empty() &&
        (cfg.postmortemAlways || job.status != RunStatus::Ok)) {
        PostmortemOptions opt;
        opt.dir = cfg.postmortemDir;
        opt.backend = be->name();
        if (shape != nullptr) {
            opt.cards = shape->cards;
            opt.stealing = shape->stealing;
            for (const FaultPlan &plan : shape->cardPlans)
                opt.faultPlans.push_back(plan.describe());
        }
        job.postmortemPath = writePostmortemBundle(
            job, opt, obsv ? obsv->metrics : nullptr);
    }

    job.wallSeconds = wall.seconds();
    return job;
}

double
machineBoundSeconds(const RealignJobResult &job)
{
    return job.simulated ? job.fpgaSeconds : job.wallSeconds;
}

RealignJobResult
RealignSession::runContig(const ReferenceGenome &ref, int32_t contig,
                          std::vector<Read> &reads) const
{
    return run(ref, std::vector<int32_t>{contig}, reads);
}

namespace {

/**
 * Fold one group's job result into the streaming aggregate.  Every
 * component reduction is commutative and associative (counters add,
 * statuses take the worst, histograms add bucket counts), so the
 * aggregate is independent of how the stream was cut into groups --
 * the heart of the streaming/in-memory bit-equality contract.
 */
void
mergeJobResult(RealignJobResult *agg, RealignJobResult &&part)
{
    for (ContigJobResult &c : part.contigs)
        agg->contigs.push_back(std::move(c));
    agg->stats.merge(part.stats);
    agg->fpgaSeconds += part.fpgaSeconds;
    agg->criticalPathSeconds =
        std::max(agg->criticalPathSeconds, part.criticalPathSeconds);
    agg->execHost.merge(part.execHost);
    agg->simulated = agg->simulated || part.simulated;
    // trace_pid 0 with stride 1 appends part's trace events with
    // their per-contig pids intact.
    agg->perf.merge(part.perf, 0, 1);
    agg->perf.pidSpan = std::max(agg->perf.pidSpan, part.perf.pidSpan);
    agg->fleet.merge(part.fleet);
    agg->recovery.merge(part.recovery);
    agg->targetLatencyCycles.merge(part.targetLatencyCycles);
    agg->targetLatencyNanos.merge(part.targetLatencyNanos);
    agg->status = worseStatus(agg->status, part.status);
    for (int32_t c : part.degradedContigs)
        agg->degradedContigs.push_back(c);
    for (int32_t c : part.failedContigs)
        agg->failedContigs.push_back(c);
    agg->cancelled = agg->cancelled || part.cancelled;
    for (int32_t c : part.skippedContigs)
        agg->skippedContigs.push_back(c);
    if (!part.postmortemPath.empty())
        agg->postmortemPath = part.postmortemPath;
}

} // namespace

StreamRealignResult
RealignSession::runStreamed(
    const ReferenceGenome &ref, ReadBatchSource &source,
    const std::function<void(std::vector<Read> &reads)> &sink) const
{
    return runStreamed(ref, source, sink, cfg);
}

StreamRealignResult
RealignSession::runStreamed(
    const ReferenceGenome &ref, ReadBatchSource &source,
    const std::function<void(std::vector<Read> &reads)> &sink,
    const RealignJobConfig &job_cfg) const
{
    fatal_if(job_cfg.threads == 0, "realign job needs >= 1 thread");
    Timer wall;
    StreamRealignResult out;
    uint64_t contigsDoneBefore = 0;

    // Groups of up to `threads` contig batches keep every worker
    // busy while bounding memory at threads x the largest batch.
    const size_t groupSize = job_cfg.threads;
    bool end = false;
    while (!end) {
        if (job_cfg.cancel &&
            job_cfg.cancel->load(std::memory_order_relaxed)) {
            out.job.cancelled = true;
            break;
        }
        std::vector<int32_t> contigs;
        std::vector<Read> reads;
        while (contigs.size() < groupSize) {
            int32_t contig = 0;
            std::vector<Read> batch;
            StreamStatus st =
                source.nextBatch(&contig, &batch, &out.parseError);
            if (st == StreamStatus::End) {
                end = true;
                break;
            }
            if (st == StreamStatus::Error) {
                // Discard the partially collected group: the
                // caller fails the job, so realigning it would
                // only waste cycles on output that gets dropped.
                out.parseOk = false;
                out.job.wallSeconds = wall.seconds();
                return out;
            }
            contigs.push_back(contig);
            ++out.batches;
            reads.reserve(reads.size() + batch.size());
            for (Read &r : batch)
                reads.push_back(std::move(r));
        }
        if (contigs.empty())
            break;

        RealignJobConfig groupCfg = job_cfg;
        if (job_cfg.onProgress) {
            const uint64_t base = contigsDoneBefore;
            const uint64_t seen = base + contigs.size();
            groupCfg.onProgress =
                [base, seen,
                 &job_cfg](const RealignJobProgress &p) {
                    RealignJobProgress q = p;
                    q.contigsDone += base;
                    // Lower bound: the stream's length is unknown.
                    q.contigsTotal = seen;
                    job_cfg.onProgress(q);
                };
        }
        mergeJobResult(&out.job,
                       run(ref, contigs, reads, groupCfg));
        contigsDoneBefore += contigs.size();
        out.readsStreamed += reads.size();
        sink(reads);
        if (out.job.cancelled)
            break;
    }

    out.job.wallSeconds = wall.seconds();
    return out;
}

RealignSession
makeSession(const std::string &backend_name, RealignJobConfig config,
            bool perf_counters, bool perf_trace)
{
    return RealignSession(
        makeBackend(backend_name, perf_counters, perf_trace), config);
}

} // namespace iracc
