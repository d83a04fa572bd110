/**
 * @file
 * Tests for the iracc_server stack: wire-protocol round-trips,
 * multi-tenant fair-share scheduling, admission control
 * (backpressure), cooperative cancellation, and a TCP end-to-end
 * drive proving tenancy never changes results -- jobs realigned
 * through the shared-fleet daemon are bit-identical to a solo
 * RealignSession run of the same spec.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/realign_job.hh"
#include "core/realigner_api.hh"
#include "core/workload.hh"
#include "genomics/io.hh"
#include "server/client.hh"
#include "server/job_scheduler.hh"
#include "server/protocol.hh"
#include "server/server.hh"

namespace iracc {
namespace {

using namespace server;

/** A one-contig synthetic spec small enough for unit tests. */
JobSpec
tinySpec(uint64_t seed)
{
    JobSpec spec;
    spec.synthScale = 40000; // scaleDivisor: ~min-length contigs
    spec.synthSeed = seed;
    spec.synthCoverage = 4.0;
    spec.synthChromosomes = {22};
    return spec;
}

// ---- Framing -----------------------------------------------------

TEST(Protocol, FrameRoundTripsAndResynchronizes)
{
    const std::string a = "{\"type\":\"ping\"}";
    const std::string b = "{\"ok\":true}";
    std::string stream = encodeFrame(a) + encodeFrame(b);

    size_t offset = 0;
    std::string payload, error;
    ASSERT_TRUE(decodeFrame(stream, &offset, &payload, &error));
    EXPECT_EQ(payload, a);
    ASSERT_TRUE(decodeFrame(stream, &offset, &payload, &error));
    EXPECT_EQ(payload, b);
    EXPECT_EQ(offset, stream.size());
    // Stream exhausted: need more bytes, not an error.
    EXPECT_FALSE(decodeFrame(stream, &offset, &payload, &error));
    EXPECT_TRUE(error.empty());
}

TEST(Protocol, PartialFrameWaitsForMoreBytes)
{
    const std::string whole = encodeFrame("abcdef");
    // Feed the frame one byte at a time: every prefix must report
    // "need more" (false, no error) without consuming anything.
    for (size_t n = 0; n < whole.size(); ++n) {
        std::string partial = whole.substr(0, n);
        size_t offset = 0;
        std::string payload, error;
        EXPECT_FALSE(
            decodeFrame(partial, &offset, &payload, &error));
        EXPECT_TRUE(error.empty()) << "at prefix length " << n;
        EXPECT_EQ(offset, 0u);
    }
}

TEST(Protocol, OversizedLengthPrefixIsAFramingError)
{
    // 0xFFFFFFFF length prefix: far beyond kMaxFrameBytes.  A
    // hostile prefix must be an error, not a 4 GiB allocation.
    std::string hostile(4, '\xff');
    size_t offset = 0;
    std::string payload, error;
    EXPECT_FALSE(decodeFrame(hostile, &offset, &payload, &error));
    EXPECT_FALSE(error.empty());
}

// ---- Message round-trips -----------------------------------------

TEST(Protocol, RequestSurvivesEncodeDecode)
{
    Request req;
    req.type = RequestType::Submit;
    req.tenant = "alice";
    req.spec.refPath = "/data/ref.fa";
    req.spec.readsPath = "/data/reads.sam";
    req.spec.outPath = "/data/out.sam";
    req.spec.synthScale = 1234;
    req.spec.synthSeed = 0xDEADBEEFull;
    req.spec.synthCoverage = 7.5;
    req.spec.synthChromosomes = {1, 21, 22};
    req.spec.jobThreads = 3;

    Request back;
    std::string error;
    ASSERT_TRUE(decodeRequest(encodeRequest(req), &back, &error))
        << error;
    EXPECT_EQ(back.type, RequestType::Submit);
    EXPECT_EQ(back.tenant, "alice");
    EXPECT_EQ(back.spec.refPath, req.spec.refPath);
    EXPECT_EQ(back.spec.readsPath, req.spec.readsPath);
    EXPECT_EQ(back.spec.outPath, req.spec.outPath);
    EXPECT_EQ(back.spec.synthScale, 1234);
    EXPECT_EQ(back.spec.synthSeed, 0xDEADBEEFull);
    EXPECT_DOUBLE_EQ(back.spec.synthCoverage, 7.5);
    EXPECT_EQ(back.spec.synthChromosomes,
              (std::vector<int>{1, 21, 22}));
    EXPECT_EQ(back.spec.jobThreads, 3u);

    Request cancel;
    cancel.type = RequestType::Cancel;
    cancel.jobId = 17;
    ASSERT_TRUE(
        decodeRequest(encodeRequest(cancel), &back, &error))
        << error;
    EXPECT_EQ(back.type, RequestType::Cancel);
    EXPECT_EQ(back.jobId, 17u);
}

TEST(Protocol, MalformedRequestsAreRejected)
{
    Request req;
    std::string error;
    EXPECT_FALSE(decodeRequest("not json", &req, &error));
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(
        decodeRequest("{\"type\":\"frobnicate\"}", &req, &error));
    EXPECT_FALSE(error.empty());
}

TEST(Protocol, ResponseSurvivesEncodeDecode)
{
    Response resp;
    resp.ok = false;
    resp.error = "tenant over quota";
    resp.reason = "backpressure";
    resp.retryAfterMs = 250;
    resp.tenantInFlight = 8;
    resp.tenantQuota = 8;
    resp.jobId = 42;
    resp.hasJob = true;
    resp.job.id = 42;
    resp.job.tenant = "bob";
    resp.job.state = JobState::Done;
    resp.job.status = "degraded";
    resp.job.contigsDone = 2;
    resp.job.contigsTotal = 2;
    resp.job.targets = 24;
    resp.job.readsConsidered = 1000;
    resp.job.readsRealigned = 31;
    resp.job.fpgaSeconds = 1.5;
    resp.job.wallSeconds = 0.25;
    resp.job.outPath = "/tmp/x.sam";
    ProgressEvent ev;
    ev.seq = 1;
    ev.contig = 21;
    ev.contigsDone = 1;
    ev.contigsTotal = 2;
    ev.status = "ok";
    ev.targets = 12;
    ev.vtime = 123456;
    ev.skipped = false;
    resp.job.progress.push_back(ev);

    Response back;
    std::string error;
    ASSERT_TRUE(decodeResponse(encodeResponse(resp), &back, &error))
        << error;
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.error, "tenant over quota");
    EXPECT_EQ(back.reason, "backpressure");
    EXPECT_EQ(back.retryAfterMs, 250u);
    EXPECT_EQ(back.tenantInFlight, 8u);
    EXPECT_EQ(back.tenantQuota, 8u);
    ASSERT_TRUE(back.hasJob);
    EXPECT_EQ(back.job.id, 42u);
    EXPECT_EQ(back.job.tenant, "bob");
    EXPECT_EQ(back.job.state, JobState::Done);
    EXPECT_EQ(back.job.status, "degraded");
    EXPECT_EQ(back.job.targets, 24u);
    EXPECT_EQ(back.job.readsRealigned, 31u);
    EXPECT_EQ(back.job.fpgaSeconds, 1.5);
    EXPECT_EQ(back.job.wallSeconds, 0.25);
    const std::string wire = encodeResponse(resp);
    EXPECT_NE(wire.find("\"fpga_seconds\":1.5"), std::string::npos)
        << wire;
    EXPECT_NE(wire.find("\"wall_seconds\":0.25"), std::string::npos)
        << wire;
    ASSERT_EQ(back.job.progress.size(), 1u);
    EXPECT_EQ(back.job.progress[0].contig, 21);
    EXPECT_EQ(back.job.progress[0].vtime, 123456u);
}

// ---- Admission control -------------------------------------------

TEST(Scheduler, OverQuotaSubmitIsRejectedWithBackpressure)
{
    JobSchedulerConfig cfg;
    cfg.workers = 1;
    cfg.maxInFlightPerTenant = 2;
    cfg.maxQueuedTotal = 64;
    cfg.retryAfterMs = 125;
    JobScheduler sched(cfg);
    // Not started: submitted jobs stay queued, so the quota math
    // is deterministic (queued + running per tenant).

    Admission a1 = sched.submit("alice", tinySpec(1));
    Admission a2 = sched.submit("alice", tinySpec(2));
    ASSERT_TRUE(a1.accepted);
    ASSERT_TRUE(a2.accepted);
    EXPECT_NE(a1.jobId, a2.jobId);
    EXPECT_EQ(a2.tenantInFlight, 2u);

    Admission a3 = sched.submit("alice", tinySpec(3));
    EXPECT_FALSE(a3.accepted);
    EXPECT_EQ(a3.reason, "backpressure");
    EXPECT_EQ(a3.retryAfterMs, 125u);
    EXPECT_EQ(a3.tenantInFlight, 2u);
    EXPECT_EQ(a3.tenantQuota, 2u);

    // Quotas are per tenant: bob is unaffected by alice's backlog.
    Admission b1 = sched.submit("bob", tinySpec(4));
    EXPECT_TRUE(b1.accepted);

    EXPECT_EQ(sched.queuedJobs(), 3u);
    sched.shutdown(false);
}

TEST(Scheduler, GlobalQueueCapRejectsAnyTenant)
{
    JobSchedulerConfig cfg;
    cfg.workers = 1;
    cfg.maxInFlightPerTenant = 8;
    cfg.maxQueuedTotal = 2;
    JobScheduler sched(cfg);

    EXPECT_TRUE(sched.submit("t1", tinySpec(1)).accepted);
    EXPECT_TRUE(sched.submit("t2", tinySpec(2)).accepted);
    Admission a = sched.submit("t3", tinySpec(3));
    EXPECT_FALSE(a.accepted);
    EXPECT_EQ(a.reason, "backpressure");
    sched.shutdown(false);
}

TEST(Scheduler, ShutdownRefusesNewWork)
{
    JobSchedulerConfig cfg;
    cfg.workers = 1;
    JobScheduler sched(cfg);
    sched.shutdown(false);
    Admission a = sched.submit("late", tinySpec(1));
    EXPECT_FALSE(a.accepted);
    EXPECT_EQ(a.reason, "shutting-down");
}

TEST(Scheduler, RejectsFileJobsWithBadPathsBeforeQueueing)
{
    char tmpl[] = "/tmp/iracc_server_paths_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    std::ofstream(dir + "/ref.fa") << ">chr1\nACGT\n";
    std::ofstream(dir + "/reads.samlite") << "";

    JobSpec good;
    good.synthScale = 0;
    good.refPath = dir + "/ref.fa";
    good.readsPath = dir + "/reads.samlite";
    good.outPath = dir + "/out.sam";
    JobSpec noRef = good;
    noRef.refPath = dir + "/missing.fa";
    JobSpec noReads = good;
    noReads.readsPath = dir + "/missing.samlite";
    JobSpec noOutDir = good;
    noOutDir.outPath = dir + "/no-such-dir/out.sam";

    obs::MetricsRegistry reg;
    JobSchedulerConfig cfg;
    cfg.workers = 1;
    cfg.metrics = &reg;
    JobScheduler sched(cfg); // not started: nothing runs
    for (const JobSpec *spec : {&noRef, &noReads, &noOutDir}) {
        Admission a = sched.submit("t", *spec);
        EXPECT_FALSE(a.accepted);
        EXPECT_EQ(a.reason, "bad-path");
        EXPECT_EQ(a.jobId, 0u);
    }
    EXPECT_NE(sched.submit("t", noRef).error.find("missing.fa"),
              std::string::npos);
    EXPECT_EQ(sched.queuedJobs(), 0u);
    EXPECT_EQ(reg.counterValue("server.jobs_rejected"), 4u);
    EXPECT_EQ(reg.counterValue("server.tenant.t.rejected"), 4u);
    EXPECT_EQ(reg.counterValue("server.jobs_submitted"), 0u);

    // Usable paths are admitted (the output need not exist yet).
    EXPECT_TRUE(sched.submit("t", good).accepted);
    EXPECT_EQ(sched.queuedJobs(), 1u);
    sched.shutdown(false);
    std::filesystem::remove_all(dir);
}

// ---- Fair share --------------------------------------------------

TEST(Scheduler, RoundRobinAcrossTenantsWithBacklogs)
{
    // One worker, jobs submitted before start() so the queues are
    // fully formed: alice enqueues two jobs, then bob enqueues
    // two.  Strict FIFO would run alice twice before bob sees the
    // card; fair share must interleave tenants.
    std::mutex order_mu;
    std::vector<uint64_t> first_progress_order;

    JobSchedulerConfig cfg;
    cfg.workers = 1;
    cfg.onProgress = [&](uint64_t job_id,
                         const RealignJobProgress &) {
        std::lock_guard<std::mutex> lock(order_mu);
        for (uint64_t seen : first_progress_order) {
            if (seen == job_id)
                return;
        }
        first_progress_order.push_back(job_id);
    };
    JobScheduler sched(cfg);

    uint64_t a1 = sched.submit("alice", tinySpec(1)).jobId;
    uint64_t a2 = sched.submit("alice", tinySpec(2)).jobId;
    uint64_t b1 = sched.submit("bob", tinySpec(3)).jobId;
    uint64_t b2 = sched.submit("bob", tinySpec(4)).jobId;

    sched.start();
    JobView view;
    ASSERT_TRUE(sched.wait(a2, &view));
    ASSERT_TRUE(sched.wait(b2, &view));
    sched.shutdown(true);

    std::vector<uint64_t> want = {a1, b1, a2, b2};
    EXPECT_EQ(first_progress_order, want);
}

// ---- Cancellation ------------------------------------------------

TEST(Scheduler, CancelQueuedJobIsImmediate)
{
    JobSchedulerConfig cfg;
    cfg.workers = 1;
    JobScheduler sched(cfg); // not started: everything stays queued

    uint64_t keep = sched.submit("t", tinySpec(1)).jobId;
    uint64_t drop = sched.submit("t", tinySpec(2)).jobId;
    EXPECT_EQ(sched.queuedJobs(), 2u);

    EXPECT_TRUE(sched.cancel(drop));
    EXPECT_EQ(sched.queuedJobs(), 1u);

    JobView view;
    ASSERT_TRUE(sched.query(drop, 0, &view));
    EXPECT_EQ(view.state, JobState::Cancelled);
    EXPECT_TRUE(view.cancelled);

    ASSERT_TRUE(sched.query(keep, 0, &view));
    EXPECT_EQ(view.state, JobState::Queued);

    EXPECT_FALSE(sched.cancel(999)); // unknown id
    sched.shutdown(false);
}

TEST(Scheduler, CancelRunningJobFreesCapacityForTheNext)
{
    // Two-contig job on one worker; the progress hook fires at
    // the first contig boundary and cancels the job, so the
    // second contig must be skipped and the worker released.
    std::atomic<JobScheduler *> sched_ptr{nullptr};
    std::atomic<uint64_t> victim{0};

    JobSchedulerConfig cfg;
    cfg.workers = 1;
    cfg.onProgress = [&](uint64_t job_id,
                         const RealignJobProgress &p) {
        JobScheduler *s = sched_ptr.load();
        if (s && job_id == victim.load() && p.contigsDone == 1)
            s->cancel(job_id);
    };
    JobScheduler sched(cfg);
    sched_ptr.store(&sched);

    JobSpec two_contigs = tinySpec(7);
    two_contigs.synthChromosomes = {21, 22};

    Admission a = sched.submit("t", two_contigs);
    ASSERT_TRUE(a.accepted);
    victim.store(a.jobId);
    sched.start();

    JobView view;
    ASSERT_TRUE(sched.wait(a.jobId, &view));
    EXPECT_EQ(view.state, JobState::Cancelled);
    EXPECT_TRUE(view.cancelled);
    // contigsDone is a completion *sequence* (skipped contigs
    // still sequence through the loop); the cancellation shows as
    // skip-marked progress events past the boundary.
    uint64_t skipped = 0;
    for (const auto &ev : view.progress)
        skipped += ev.skipped ? 1 : 0;
    EXPECT_EQ(skipped, 1u) << "second contig should be skipped";

    // The worker (and its fleet lease) must be free again: a
    // fresh job runs to completion on the same scheduler.
    victim.store(0);
    Admission b = sched.submit("t", tinySpec(8));
    ASSERT_TRUE(b.accepted);
    ASSERT_TRUE(sched.wait(b.jobId, &view));
    EXPECT_EQ(view.state, JobState::Done);
    EXPECT_EQ(view.status, "ok");
    EXPECT_EQ(view.contigsDone, view.contigsTotal);

    sched.shutdown(true);
    EXPECT_EQ(sched.runningJobs(), 0u);
}

// ---- Output failures ---------------------------------------------

TEST(Scheduler, UnwritableOutputFailsTheJob)
{
    // /dev/full accepts the open and fails the flush: a job must
    // fail naming the path, not report ok over a lost output.
    char tmpl[] = "/tmp/iracc_server_full_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    {
        WorkloadParams params;
        params.seed = 31;
        params.scaleDivisor = 40000;
        params.coverage = 4.0;
        params.chromosomes = {22};
        GenomeWorkload wl = buildWorkload(params);
        std::ofstream fa(dir + "/ref.fa");
        writeFasta(fa, wl.reference);
        std::ofstream sam(dir + "/reads.samlite");
        writeSamLite(sam, wl.reference, wl.chromosomes[0].reads);
    }

    JobSpec synth = tinySpec(31);
    synth.outPath = "/dev/full";
    JobSpec file;
    file.synthScale = 0;
    file.refPath = dir + "/ref.fa";
    file.readsPath = dir + "/reads.samlite";
    file.outPath = "/dev/full";
    // A synth job opens its output before synthesizing, so a bad
    // path fails it without running a contig.
    JobSpec missing = tinySpec(31);
    missing.outPath = dir + "/no-such-dir/out.sam";

    JobSchedulerConfig cfg;
    cfg.workers = 1;
    JobScheduler sched(cfg);
    sched.start();
    for (const JobSpec *spec : {&synth, &file, &missing}) {
        Admission a = sched.submit("t", *spec);
        ASSERT_TRUE(a.accepted);
        JobView view;
        ASSERT_TRUE(sched.wait(a.jobId, &view));
        EXPECT_EQ(view.state, JobState::Done);
        EXPECT_EQ(view.status, "failed");
        EXPECT_EQ(view.error, "cannot write '" + spec->outPath + "'");
        EXPECT_EQ(view.progress.empty(), spec == &missing);
    }
    sched.shutdown(true);
    EXPECT_FALSE(std::filesystem::exists(dir + "/no-such-dir"));
    std::filesystem::remove_all(dir);
}

// ---- TCP end to end ----------------------------------------------

/** Solo (no daemon) realignment of a synth spec, rendered to the
 *  same SAM-lite text the server writes at outPath. */
std::string
soloRealign(const JobSpec &spec)
{
    WorkloadParams params;
    params.seed = spec.synthSeed;
    params.scaleDivisor = spec.synthScale;
    params.coverage = spec.synthCoverage;
    params.chromosomes = spec.synthChromosomes;
    GenomeWorkload wl = buildWorkload(params);

    std::vector<Read> reads;
    for (const auto &chr : wl.chromosomes) {
        reads.insert(reads.end(), chr.reads.begin(),
                     chr.reads.end());
    }

    RealignSession session(makeBackend("iracc"));
    RealignJobConfig job_cfg;
    job_cfg.threads = 1; // tenancy/threading must not change bits
    RealignJobResult result =
        session.run(wl.reference, reads, job_cfg);
    EXPECT_EQ(result.status, RunStatus::Ok);

    std::ostringstream os;
    writeSamLite(os, wl.reference, reads);
    return os.str();
}

TEST(ServerEndToEnd, FourTenantsGetBitIdenticalResults)
{
    char tmpl[] = "/tmp/iracc_server_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;

    ServerConfig cfg;
    cfg.port = 0; // kernel-assigned; tests never collide
    cfg.name = "test_server";
    cfg.scheduler.workers = 4;
    std::string error;
    RealignServer srv(cfg);
    ASSERT_TRUE(srv.start(&error)) << error;
    std::thread server_thread([&] { srv.serve(); });

    // Four tenants with four *different* datasets, submitted
    // concurrently over four connections; each job runs with two
    // contig workers against the shared fleet.
    const int kTenants = 4;
    std::vector<JobSpec> specs;
    for (int t = 0; t < kTenants; ++t) {
        JobSpec spec = tinySpec(1000 + t);
        spec.jobThreads = 2;
        spec.outPath =
            dir + "/tenant" + std::to_string(t) + ".sam";
        specs.push_back(spec);
    }

    std::vector<std::string> failures(kTenants);
    std::vector<std::thread> tenants;
    for (int t = 0; t < kTenants; ++t) {
        tenants.emplace_back([&, t] {
            ServerClient client;
            std::string err;
            Response resp;
            if (!client.connect("127.0.0.1", srv.port(), &err)) {
                failures[t] = "connect: " + err;
                return;
            }
            if (!client.submit("tenant" + std::to_string(t),
                               specs[t], &resp, &err) ||
                !resp.ok) {
                failures[t] = "submit: " + err + resp.error;
                return;
            }
            if (!client.result(resp.jobId, &resp, &err) ||
                !resp.ok || !resp.hasJob) {
                failures[t] = "result: " + err + resp.error;
                return;
            }
            if (resp.job.state != JobState::Done ||
                resp.job.status != "ok") {
                failures[t] = "job not ok: " + resp.job.status;
            }
            if (resp.job.progress.size() !=
                resp.job.contigsTotal) {
                failures[t] = "missing progress events";
            }
        });
    }
    for (auto &th : tenants)
        th.join();
    for (int t = 0; t < kTenants; ++t)
        EXPECT_TRUE(failures[t].empty()) << failures[t];

    // The tenancy invariant: every tenant's daemon output is
    // byte-for-byte what a solo single-threaded session produces.
    for (int t = 0; t < kTenants; ++t) {
        std::ifstream in(specs[t].outPath);
        ASSERT_TRUE(in.good()) << specs[t].outPath;
        std::stringstream got;
        got << in.rdbuf();
        EXPECT_EQ(got.str(), soloRealign(specs[t]))
            << "tenant " << t << " diverged from solo run";
    }

    // The same socket protocol exposes the metrics registry.
    ServerClient client;
    Response resp;
    ASSERT_TRUE(client.connect("127.0.0.1", srv.port(), &error))
        << error;
    ASSERT_TRUE(client.metrics("prometheus", &resp, &error))
        << error;
    ASSERT_TRUE(resp.ok);
    EXPECT_NE(resp.metricsBody.find("server_jobs_submitted 4"),
              std::string::npos)
        << resp.metricsBody;
    EXPECT_NE(resp.metricsBody.find("server_jobs_completed 4"),
              std::string::npos);

    ASSERT_TRUE(client.ping(&resp, &error)) << error;
    EXPECT_EQ(resp.serverName, "test_server");

    // Unknown job ids are answered, not dropped.
    ASSERT_TRUE(client.status(999, 0, &resp, &error)) << error;
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.reason, "unknown-job");

    ASSERT_TRUE(client.shutdown(true, &resp, &error)) << error;
    EXPECT_TRUE(resp.ok);
    server_thread.join();

    for (int t = 0; t < kTenants; ++t)
        std::remove(specs[t].outPath.c_str());
    rmdir(dir.c_str());
}

} // namespace
} // namespace iracc
