/**
 * @file
 * iracc_client -- command-line client of the iracc_server daemon
 * (docs/SERVER.md).
 *
 *   iracc_client ping     --port N
 *   iracc_client submit   --port N --tenant T (--ref F --reads F |
 *                         --synth-scale N [--synth-seed S]
 *                         [--synth-coverage C] [--chromosomes 1,2])
 *                         [--out F] [--job-threads N] [--seed S]
 *                         [--wait]
 *   iracc_client status   --port N --job ID [--since SEQ]
 *   iracc_client cancel   --port N --job ID
 *   iracc_client result   --port N --job ID   (blocks)
 *   iracc_client metrics  --port N [--format json|prometheus]
 *   iracc_client shutdown --port N [--drain 0|1]
 *
 * Exit codes mirror iracc_cli realign: 0 job Ok, 3 job Degraded,
 * 4 job Failed or cancelled, 1 transport/server error, 2 usage
 * error.  `submit` without --wait exits 0 once the job is
 * accepted; with backpressure it exits 4 and prints the server's
 * retry_after_ms so scripted tenants can back off.  A file job
 * whose --ref/--reads cannot be opened or whose --out directory
 * does not exist is rejected the same way (exit 4, reason
 * bad-path) before it queues.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "server/client.hh"
#include "util/argparse.hh"

using namespace iracc;
using namespace iracc::server;

namespace {

void
usage()
{
    std::fprintf(stderr,
        "usage: iracc_client "
        "{ping|submit|status|cancel|result|metrics|shutdown} "
        "[options]\n"
        "  common: --host ADDR (default 127.0.0.1), --port N\n"
        "  submit: --tenant T, --ref F --reads F or "
        "--synth-scale N [--synth-seed S]\n"
        "          [--synth-coverage C] [--chromosomes 1,2,...], "
        "[--out F],\n"
        "          [--job-threads N], [--seed S], [--wait]\n"
        "  status: --job ID [--since SEQ]\n"
        "  cancel/result: --job ID\n"
        "  metrics: [--format json|prometheus]\n"
        "  shutdown: [--drain 0|1]\n");
}

std::vector<int>
parseChromosomes(const std::string &text)
{
    std::vector<int> out;
    size_t start = 0;
    while (start <= text.size()) {
        size_t comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        std::string tok = text.substr(start, comma - start);
        int64_t v = 0;
        if (!parseInt64(tok, &v) || v < 1 || v > 22) {
            usageError("--chromosomes entry '%s' is not a "
                       "chromosome number (1..22)",
                       tok.c_str());
        }
        out.push_back(static_cast<int>(v));
        start = comma + 1;
    }
    return out;
}

void
printJob(const JobView &job)
{
    std::printf("job %llu tenant=%s state=%s",
                static_cast<unsigned long long>(job.id),
                job.tenant.c_str(), jobStateName(job.state));
    if (!job.status.empty())
        std::printf(" status=%s", job.status.c_str());
    if (job.cancelled)
        std::printf(" cancelled=1");
    std::printf(" contigs=%llu/%llu",
                static_cast<unsigned long long>(job.contigsDone),
                static_cast<unsigned long long>(job.contigsTotal));
    if (job.state == JobState::Done ||
        job.state == JobState::Cancelled) {
        std::printf(" targets=%llu realigned=%llu/%llu "
                    "seconds=%.6f wall=%.3f",
                    static_cast<unsigned long long>(job.targets),
                    static_cast<unsigned long long>(
                        job.readsRealigned),
                    static_cast<unsigned long long>(
                        job.readsConsidered),
                    job.seconds, job.wallSeconds);
    }
    if (!job.outPath.empty())
        std::printf(" out=%s", job.outPath.c_str());
    if (!job.postmortemPath.empty())
        std::printf(" postmortem=%s", job.postmortemPath.c_str());
    if (!job.error.empty())
        std::printf(" error=\"%s\"", job.error.c_str());
    std::printf("\n");
    for (const ProgressEvent &p : job.progress) {
        std::printf("  progress seq=%llu contig=%d %s "
                    "targets=%llu vtime=%llu (%llu/%llu)\n",
                    static_cast<unsigned long long>(p.seq),
                    p.contig,
                    p.skipped ? "skipped" : p.status.c_str(),
                    static_cast<unsigned long long>(p.targets),
                    static_cast<unsigned long long>(p.vtime),
                    static_cast<unsigned long long>(p.contigsDone),
                    static_cast<unsigned long long>(
                        p.contigsTotal));
    }
}

/** iracc_cli-compatible health exit code for a terminal job. */
int
jobExitCode(const JobView &job)
{
    if (job.state == JobState::Cancelled || job.status == "failed")
        return 4;
    if (job.status == "degraded")
        return 3;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        usage();
        return 0;
    }

    ArgParser args(argc, argv, 2, "iracc_client");
    const std::string host = args.get("--host", "127.0.0.1");
    const uint16_t port = static_cast<uint16_t>(
        args.getInt("--port", 0, 1, 65535));

    // Validate every flag before touching the network: a
    // malformed flag must be a usage error (exit 2) even when no
    // server is reachable -- same contract as iracc_cli, which
    // validates before touching the filesystem.
    Request req;
    bool wait_for_result = false;
    if (cmd == "ping") {
        req.type = RequestType::Ping;
    } else if (cmd == "submit") {
        req.type = RequestType::Submit;
        JobSpec &spec = req.spec;
        spec.refPath = args.get("--ref", "");
        spec.readsPath = args.get("--reads", "");
        spec.outPath = args.get("--out", "");
        spec.synthScale =
            args.getInt("--synth-scale", 0, 0, 100000000);
        spec.synthSeed =
            args.getUint("--synth-seed", spec.synthSeed);
        spec.synthCoverage =
            args.getDouble("--synth-coverage", spec.synthCoverage,
                           0.1, 1000.0);
        if (args.has("--chromosomes")) {
            spec.synthChromosomes =
                parseChromosomes(args.get("--chromosomes", ""));
        }
        spec.jobThreads = static_cast<uint32_t>(
            args.getInt("--job-threads", 1, 1, 1024));
        spec.seed = args.getUint("--seed", 0);
        wait_for_result = args.getFlag("--wait", false);
        req.tenant = args.get("--tenant", "");
        if (req.tenant.empty())
            usageError("submit needs --tenant");
        if (spec.synthScale == 0 &&
            (spec.refPath.empty() || spec.readsPath.empty())) {
            usageError("submit needs --ref and --reads, or "
                       "--synth-scale");
        }
    } else if (cmd == "status") {
        req.type = RequestType::Status;
        req.jobId = args.getUint("--job", 0, 1);
        req.progressSince = args.getUint("--since", 0);
    } else if (cmd == "cancel") {
        req.type = RequestType::Cancel;
        req.jobId = args.getUint("--job", 0, 1);
    } else if (cmd == "result") {
        req.type = RequestType::Result;
        req.jobId = args.getUint("--job", 0, 1);
    } else if (cmd == "metrics") {
        req.type = RequestType::Metrics;
        req.metricsFormat = args.get("--format", "json");
        if (req.metricsFormat != "json" &&
            req.metricsFormat != "prometheus") {
            usageError("--format must be json or prometheus");
        }
    } else if (cmd == "shutdown") {
        req.type = RequestType::Shutdown;
        req.drain = args.getFlag("--drain", true);
    } else {
        usage();
        return 2;
    }

    ServerClient client;
    std::string error;
    if (!client.connect(host, port, &error)) {
        std::fprintf(stderr, "iracc_client: %s\n", error.c_str());
        return 1;
    }

    Response resp;
    bool transport_ok = client.call(req, &resp, &error);

    if (cmd == "ping") {
        if (transport_ok && resp.ok)
            std::printf("%s\n", resp.serverName.c_str());
    } else if (cmd == "submit") {
        if (transport_ok && resp.ok) {
            std::printf("submitted job %llu (tenant %s, "
                        "%llu/%llu in flight)\n",
                        static_cast<unsigned long long>(resp.jobId),
                        req.tenant.c_str(),
                        static_cast<unsigned long long>(
                            resp.tenantInFlight),
                        static_cast<unsigned long long>(
                            resp.tenantQuota));
            if (wait_for_result) {
                transport_ok =
                    client.result(resp.jobId, &resp, &error);
                if (transport_ok && resp.ok && resp.hasJob) {
                    printJob(resp.job);
                    return jobExitCode(resp.job);
                }
            }
        } else if (transport_ok && resp.reason == "backpressure") {
            std::fprintf(stderr,
                         "rejected: backpressure (%llu/%llu in "
                         "flight), retry after %llu ms\n",
                         static_cast<unsigned long long>(
                             resp.tenantInFlight),
                         static_cast<unsigned long long>(
                             resp.tenantQuota),
                         static_cast<unsigned long long>(
                             resp.retryAfterMs));
            return 4;
        } else if (transport_ok && resp.reason == "bad-path") {
            std::fprintf(stderr, "rejected: bad-path: %s\n",
                         resp.error.c_str());
            return 4;
        }
    } else if (cmd == "status") {
        if (transport_ok && resp.ok && resp.hasJob)
            printJob(resp.job);
    } else if (cmd == "cancel") {
        if (transport_ok && resp.ok)
            std::printf("cancel requested for job %llu\n",
                        static_cast<unsigned long long>(req.jobId));
    } else if (cmd == "result") {
        if (transport_ok && resp.ok && resp.hasJob) {
            printJob(resp.job);
            return jobExitCode(resp.job);
        }
    } else if (cmd == "metrics") {
        if (transport_ok && resp.ok)
            std::fputs(resp.metricsBody.c_str(), stdout);
    } else if (cmd == "shutdown") {
        if (transport_ok && resp.ok)
            std::printf("shutdown requested\n");
    }

    if (!transport_ok) {
        std::fprintf(stderr, "iracc_client: %s\n", error.c_str());
        return 1;
    }
    if (!resp.ok) {
        std::fprintf(stderr, "iracc_client: server error: %s%s%s\n",
                     resp.error.c_str(),
                     resp.reason.empty() ? "" : " reason=",
                     resp.reason.c_str());
        return 1;
    }
    return 0;
}
