/**
 * @file
 * The server_tenants workload: a closed loop of four tenant
 * connections to an in-process iracc server (2 scheduler workers,
 * iracc backend).  Each tenant keeps exactly one file job
 * outstanding -- submit, block on result, check the output, submit
 * again -- with 1 job thread per job.  Three tenants realign the
 * small chr21+22 dataset, one the larger 4-contig dataset, so the
 * fair-share queue always holds a mix.  Only the client calls are
 * timed and traced (server.submit, server.result); everything
 * inside the server is measured by the in-process workloads.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "server/client.hh"
#include "server/server.hh"

namespace perfbench {

using namespace iracc;
using namespace iracc::server;

namespace {

constexpr int kTenants = 4;
constexpr int kSetupSamples = 31;
constexpr uint32_t kWorkers = 2;
// One thread per job: the 2 workers' fork-joins then use half of a
// 4-vCPU host (each Execute still adds the backend's irCompute pool).
constexpr uint32_t kJobThreads = 1;

/** A started server, its serve() thread, and the tenant clients. */
class LiveServer
{
  public:
    LiveServer() = default;
    ~LiveServer() { stop(); }

    LiveServer(const LiveServer &) = delete;
    LiveServer &operator=(const LiveServer &) = delete;

    /** Start the server and connect every tenant. */
    void
    start()
    {
        ServerConfig cfg;
        cfg.port = 0;
        cfg.name = "perfbench";
        cfg.scheduler.workers = kWorkers;
        cfg.scheduler.backend = "iracc";
        srv = std::make_unique<RealignServer>(cfg);
        std::string err;
        if (!srv->start(&err))
            throw std::runtime_error("server start: " + err);
        RealignServer *s = srv.get();
        serving = std::thread([s] { s->serve(); });
        for (int t = 0; t < kTenants; ++t) {
            clients.push_back(std::make_unique<ServerClient>());
            if (!clients.back()->connect("127.0.0.1", srv->port(), &err))
                throw std::runtime_error("connect: " + err);
        }
    }

    /** Close the clients, drain the server, join its thread. */
    void
    stop()
    {
        for (auto &c : clients)
            c->close();
        clients.clear();
        if (srv)
            srv->requestShutdown(true);
        if (serving.joinable())
            serving.join();
        srv.reset();
    }

    ServerClient &client(int t) { return *clients[static_cast<size_t>(t)]; }

  private:
    std::unique_ptr<RealignServer> srv;
    std::vector<std::unique_ptr<ServerClient>> clients;
    std::thread serving;
};

/** One completed (or failed) job as the tenant saw it. */
struct JobRecord
{
    double latency = 0.0;
    double submitRtt = 0.0;
    double serverWall = 0.0;
    uint64_t reads = 0;
    uint64_t targets = 0;
    uint64_t considered = 0;
    uint64_t realigned = 0;
    bool rejected = false;
    std::string failure;
};

/** One dataset a tenant submits, with its oracle record. */
struct Dataset
{
    JobSpec spec;
    Expected want;
};

/** A tenant rotates through the variants of its dataset. */
struct Tenant
{
    std::string name;
    std::vector<Dataset> datasets;
};

/** Submit and wait for one job; fill @p r.  @return false when the
 *  connection itself failed (the tenant stops). */
bool
oneJob(ServerClient &client, const std::string &tenant, const Dataset &t,
       Tracer &tr, int id, bool corrupt, JobRecord &r)
{
    // A fresh output file per job (see the in-process passes).
    std::remove(t.spec.outPath.c_str());
    const double t0 = now();
    Response resp;
    std::string err;
    bool transport = true;
    {
        Scope job(tr, "server.job", -1, id);
        {
            Scope s(tr, "server.submit", job.id(), id);
            transport = client.submit(tenant, t.spec, &resp, &err);
        }
        r.submitRtt = now() - t0;
        if (transport && resp.ok) {
            Scope s(tr, "server.result", job.id(), id);
            transport = client.result(resp.jobId, &resp, &err);
        }
    }
    r.latency = now() - t0;
    if (!transport) {
        r.failure = "transport: " + err;
        return false;
    }
    if (!resp.ok) {
        r.rejected = resp.reason == "backpressure";
        r.failure = "rejected: " + resp.reason + " " + resp.error;
        // Back off as the server asks before the next submit.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(resp.retryAfterMs));
        return true;
    }
    const JobView &j = resp.job;
    r.serverWall = j.wallSeconds;
    r.targets = j.targets;
    r.considered = j.readsConsidered;
    r.realigned = j.readsRealigned;
    r.reads = t.want.reads;
    if (j.state != JobState::Done || j.status != "ok" || j.cancelled ||
        !j.error.empty()) {
        r.failure = "job " + std::string(jobStateName(j.state)) + "/" +
                    j.status + " " + j.error;
    } else if (j.targets != t.want.targets ||
               j.readsRealigned != t.want.readsRealigned) {
        r.failure = "statistics differ from the oracle";
    } else {
        if (corrupt)
            corruptFile(t.spec.outPath);
        if (digestFile(t.spec.outPath) != t.want.digest)
            r.failure = "output digest differs from the oracle";
    }
    return true;
}

/** What one closed-loop window took. */
struct Window
{
    double wall = 0.0;
    /** CPU seconds of the server's threads (the process's, less the
     *  tenant threads' own). */
    double serverCpu = 0.0;
};

/** Run the closed loop until @p seconds pass, at least one job per
 *  tenant. */
Window
closedLoop(LiveServer &live, const std::vector<Tenant> &tenants,
           double seconds, Tracer &tr, bool corrupt,
           std::vector<JobRecord> &out)
{
    std::mutex mu;
    std::atomic<int> ids{0};
    double tenantCpu = 0.0;
    const double c0 = processCpuNow();
    const double t0 = now();
    const double deadline = t0 + seconds;
    std::vector<std::thread> threads;
    for (int t = 0; t < kTenants; ++t) {
        threads.emplace_back([&, t] {
            const double own0 = threadCpuNow();
            const Tenant &tenant = tenants[static_cast<size_t>(t)];
            for (size_t j = 0; j == 0 || now() < deadline; ++j) {
                JobRecord r;
                const int id = tr.on() ? ++ids : 0;
                const Dataset &ds =
                    tenant.datasets[(j + static_cast<size_t>(t)) %
                                    tenant.datasets.size()];
                const bool alive = oneJob(live.client(t), tenant.name, ds, tr,
                                          id, corrupt && t == 0 && j == 0, r);
                std::lock_guard<std::mutex> lock(mu);
                out.push_back(std::move(r));
                if (!alive)
                    break;
            }
            const double own = threadCpuNow() - own0;
            std::lock_guard<std::mutex> lock(mu);
            tenantCpu += own;
        });
    }
    for (std::thread &th : threads)
        th.join();
    Window w;
    w.wall = now() - t0;
    w.serverCpu = processCpuNow() - c0 - tenantCpu;
    return w;
}

} // namespace

void
runServerTenants(const Options &opt, Report &rep)
{
    const std::map<std::string, Expected> want = readOracle(opt.dir);
    const std::string dir = std::filesystem::absolute(opt.dir).string();
    std::vector<Tenant> tenants;
    for (int t = 0; t < kTenants; ++t) {
        // The last tenant is the heavy one.
        const bool heavy = t == kTenants - 1;
        Tenant tn;
        tn.name = "tenant" + std::to_string(t);
        const uint64_t variants = heavy ? kLargeVariants : kSmallVariants;
        for (uint64_t v = 0; v < variants; ++v) {
            const std::string ds =
                (heavy ? "large" : "small") + std::to_string(v);
            Dataset d;
            d.spec.refPath = dir + "/" + ds + ".fa";
            d.spec.readsPath = dir + "/" + ds + ".samlite";
            d.spec.outPath = dir + "/out-" + tn.name + ".samlite";
            d.spec.jobThreads = kJobThreads;
            d.want = want.at(ds);
            tn.datasets.push_back(d);
        }
        tenants.push_back(tn);
    }

    // Set-up: server construction + start + every tenant connect.
    std::vector<double> samples;
    auto setupSample = [&samples] {
        auto next = std::make_unique<LiveServer>();
        const double c0 = processCpuNow();
        next->start();
        samples.push_back(processCpuNow() - c0);
        return next;
    };
    std::unique_ptr<LiveServer> live;
    for (int i = 0; i < kSetupSamples; ++i)
        live = setupSample();

    Tracer off(false);
    Tracer tr(opt.trace);
    std::vector<JobRecord> warm, untraced, traced;
    // One untimed warm-up job per tenant (checked like the others).
    closedLoop(*live, tenants, 0.0, off, opt.corrupt, warm);
    resetPeakRss();
    const Window window = closedLoop(
        *live, tenants, opt.trace ? opt.seconds / 2 : opt.seconds, off,
        false, untraced);
    if (opt.trace)
        closedLoop(*live, tenants, opt.seconds / 2, tr, false, traced);
    live->stop();
    const double rss = peakRssMb();

    uint64_t rejects = 0;
    auto account = [&](const std::vector<JobRecord> &jobs) {
        for (const JobRecord &r : jobs) {
            rep.op(!r.failure.empty(), r.failure);
            rejects += r.rejected ? 1 : 0;
        }
    };
    auto summarize = [&](const std::vector<JobRecord> &jobs,
                         std::vector<double> &lat, std::vector<double> &wall,
                         uint64_t &reads) {
        account(jobs);
        for (const JobRecord &r : jobs) {
            if (!r.failure.empty())
                continue;
            lat.push_back(r.latency);
            wall.push_back(r.serverWall);
            reads += r.reads;
        }
    };
    account(warm);
    std::vector<double> lat, wall;
    uint64_t reads = 0;
    summarize(untraced, lat, wall, reads);

    if (!opt.trace) {
        std::printf("samples: %zu jobs over %.3f s, %zu set-ups\n",
                    lat.size(), window.wall, samples.size());
        addEndToEnd(rep, {{"setup_s", percentile(samples, 0.5)},
                          {"cpu_us_per_read", window.serverCpu /
                                                  static_cast<double>(reads) *
                                                  1e6},
                          {"peak_rss_mb", rss}});
        return;
    }

    std::vector<double> tlat, twall;
    uint64_t treads = 0;
    summarize(traced, tlat, twall, treads);
    std::map<std::string, double> v;
    std::vector<double> rtt, queue;
    double targets = 0, considered = 0, realigned = 0;
    for (const JobRecord &r : traced) {
        if (!r.failure.empty())
            continue;
        rtt.push_back(r.submitRtt);
        queue.push_back(r.latency - r.serverWall);
        targets += static_cast<double>(r.targets);
        considered += static_cast<double>(r.considered);
        realigned += static_cast<double>(r.realigned);
    }
    const double n = std::max<double>(1.0, static_cast<double>(rtt.size()));
    v["server.submit_rtt_s"] = percentile(rtt, 0.5);
    v["server.queue_wait_s"] = percentile(queue, 0.5);
    v["server.job_wall_s"] = percentile(twall, 0.5);
    // Wall throughput and latency come from the untraced half of the
    // window.  A pass is a job's server-side wall.
    v["wall.reads_per_s"] = static_cast<double>(reads) / window.wall;
    v["wall.pass_p50_s"] = percentile(wall, 0.5);
    v["wall.job_p50_s"] = percentile(lat, 0.5);
    v["server.jobs_per_s"] = static_cast<double>(lat.size()) / window.wall;
    v["server.job_p90_s"] = percentile(lat, 0.9);
    v["server.backpressure_rejects"] = static_cast<double>(rejects);
    v["realign.targets"] = targets / n;
    v["realign.reads_considered"] = considered / n;
    v["realign.reads_realigned"] = realigned / n;

    const std::vector<Span> spans = tr.spans();
    double jobs = 0.0, covered = 0.0;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != -1)
            continue;
        jobs += spans[i].end - spans[i].start;
        covered += childTotal(spans, static_cast<int>(i));
    }
    v["trace.unattributed_frac"] = jobs > 0.0 ? 1.0 - covered / jobs : 0.0;
    v["trace.overhead_frac"] =
        percentile(tlat, 0.5) / percentile(lat, 0.5) - 1.0;
    std::printf("samples: %zu untraced jobs, %zu traced jobs\n", lat.size(),
                tlat.size());
    addPerLayer(rep, v);
    if (!opt.traceOut.empty() && !tr.write(opt.traceOut))
        throw std::runtime_error("cannot write " + opt.traceOut);
}

} // namespace perfbench
