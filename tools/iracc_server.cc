/**
 * @file
 * iracc_server -- the long-running multi-tenant realignment daemon
 * (docs/SERVER.md).  Accepts concurrent jobs over a loopback TCP
 * socket speaking length-prefixed JSON frames, schedules them
 * fairly across tenants onto one shared backend/card fleet, and
 * exposes its metrics registry both through the protocol and as an
 * HTTP "GET /metrics" Prometheus endpoint on the same port.
 *
 * Exit codes: 0 clean shutdown, 1 fatal startup error, 2 usage
 * error.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>

#include "server/server.hh"
#include "util/argparse.hh"
#include "util/logging.hh"

using namespace iracc;

namespace {

std::atomic<bool> gStop{false};

void
onSignal(int)
{
    // Async-signal-safe: the server's serve() loop polls the flag
    // and performs a drain shutdown on its own threads.
    gStop.store(true, std::memory_order_relaxed);
}

void
usage()
{
    std::fprintf(stderr,
        "usage: iracc_server [options]\n"
        "  --port N           TCP port (0 = ephemeral; default 0)\n"
        "  --bind ADDR        bind address (default 127.0.0.1)\n"
        "  --backend NAME     realigner backend (default iracc)\n"
        "  --cards N          fleet cards shared by all tenants "
        "(1..64, default 1)\n"
        "  --stealing 0|1     cross-card work stealing (default 1)\n"
        "  --workers N        concurrent jobs (1..256, default 2)\n"
        "  --tenant-quota N   max queued+running jobs per tenant "
        "(1..4096, default 8)\n"
        "  --max-queue N      max queued jobs over all tenants "
        "(1..65536, default 64)\n"
        "  --retry-after-ms N backpressure back-off hint "
        "(default 250)\n"
        "  --postmortem DIR   write post-mortem bundles for "
        "Degraded/Failed jobs (an existing,\n"
        "                     writable directory)\n"
        "  --name NAME        identity answered to ping\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && (std::string(argv[1]) == "--help" ||
                     std::string(argv[1]) == "-h")) {
        usage();
        return 0;
    }

    ArgParser args(argc, argv, 1, "iracc_server");

    server::ServerConfig cfg;
    cfg.port = static_cast<uint16_t>(
        args.getInt("--port", 0, 0, 65535));
    cfg.bindAddress = args.get("--bind", "127.0.0.1");
    cfg.name = args.get("--name", "iracc_server");
    cfg.scheduler.backend = args.get("--backend", "iracc");
    cfg.scheduler.cards = static_cast<uint32_t>(
        args.getInt("--cards", 1, 1, 64));
    cfg.scheduler.stealing = args.getFlag("--stealing", true);
    cfg.scheduler.workers = static_cast<uint32_t>(
        args.getInt("--workers", 2, 1, 256));
    cfg.scheduler.maxInFlightPerTenant = static_cast<uint32_t>(
        args.getInt("--tenant-quota", 8, 1, 4096));
    cfg.scheduler.maxQueuedTotal = static_cast<uint32_t>(
        args.getInt("--max-queue", 64, 1, 65536));
    cfg.scheduler.retryAfterMs =
        args.getUint("--retry-after-ms", 250, 0, 3600000);
    cfg.scheduler.postmortemDir = args.get("--postmortem", "");
    cfg.stop = &gStop;
    if (!cfg.scheduler.postmortemDir.empty()) {
        // Checked before listening: a bad DIR would otherwise only
        // surface, fatally, when the first failed job writes its
        // bundle.
        const std::string &dir = cfg.scheduler.postmortemDir;
        std::error_code ec;
        fatal_if(!std::filesystem::is_directory(dir, ec),
                 "iracc_server: --postmortem '%s' is not an existing "
                 "directory",
                 dir.c_str());
        requireWritable(dir + "/.iracc_server_probe");
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
#ifdef SIGPIPE
    std::signal(SIGPIPE, SIG_IGN);
#endif

    server::RealignServer srv(cfg);
    std::string error;
    if (!srv.start(&error))
        fatal("iracc_server: %s", error.c_str());

    // The "listening" line is the tool's readiness handshake:
    // scripts (and the CI smoke job) wait for it before connecting.
    std::printf("iracc_server listening on %s:%u\n",
                cfg.bindAddress.c_str(), unsigned(srv.port()));
    std::fflush(stdout);

    srv.serve();

    std::printf("iracc_server: shut down cleanly (%llu jobs "
                "submitted, %llu completed, %llu cancelled)\n",
                static_cast<unsigned long long>(
                    srv.metrics().counterValue(
                        "server.jobs_submitted")),
                static_cast<unsigned long long>(
                    srv.metrics().counterValue(
                        "server.jobs_completed")),
                static_cast<unsigned long long>(
                    srv.metrics().counterValue(
                        "server.jobs_cancelled")));
    return 0;
}
