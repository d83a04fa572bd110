/**
 * @file
 * iracc_cli -- command-line front end for the IRACC pipeline.
 *
 * Subcommands:
 *   simulate  synthesize a reference + aligned reads + truth VCF
 *   realign   run INDEL realignment on a SAM-lite file with any
 *             registered backend (software or simulated FPGA)
 *   call      run the somatic variant caller, emit VCF
 *   stats     summarize a read set
 *
 * Typical session:
 *   iracc_cli simulate --chromosomes 21,22 --scale 2000 --out /tmp/ds
 *   iracc_cli realign  --dir /tmp/ds --backend iracc
 *   iracc_cli call     --dir /tmp/ds --reads realigned.samlite
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/file_pass.hh"
#include "core/postmortem.hh"
#include "core/realign_job.hh"
#include "core/realigner_api.hh"
#include "core/workload.hh"
#include "fault/fault.hh"
#include "genomics/io.hh"
#include "obs/flight_recorder.hh"
#include "obs/obs.hh"
#include "realign/whd_simd.hh"
#include "util/argparse.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "variant/caller.hh"
#include "variant/vcf.hh"

using namespace iracc;

namespace {

// Numeric flags parse strictly through util/argparse: "--cards abc"
// and "--job-threads -1" are usage errors (exit 2), not silent
// zeros -- atoi-family parsing used to pass both through to the
// fleet/thread-pool constructors unvalidated.
using Args = ArgParser;

std::vector<int>
parseChromosomes(const std::string &spec)
{
    std::vector<int> out;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string tok = spec.substr(pos, comma - pos);
        int64_t v = 0;
        if (!parseInt64(tok, &v) || v < 1 || v > 22) {
            usageError("iracc_cli: --chromosomes entry '%s' is not "
                       "a chromosome number (1..22)",
                       tok.c_str());
        }
        out.push_back(static_cast<int>(v));
        pos = comma + 1;
    }
    return out;
}

ReferenceGenome
loadReference(const std::string &path)
{
    std::ifstream f(path);
    fatal_if(!f, "cannot open reference '%s'", path.c_str());
    return readFasta(f);
}

std::vector<Read>
loadReads(const std::string &path, const ReferenceGenome &ref)
{
    std::ifstream f(path);
    fatal_if(!f, "cannot open reads '%s'", path.c_str());
    return readSamLite(f, ref);
}

/** Open @p path for writing; fatal() when it cannot be. */
std::ofstream
openOutput(const std::string &path)
{
    std::ofstream f(path);
    fatal_if(!f, "cannot write '%s'", path.c_str());
    return f;
}

/**
 * Close an openOutput() stream; fatal() when a write failed, after
 * removing the partial file.
 */
void
finishOutput(std::ofstream &f, const std::string &path)
{
    fatal_if(!closeOutput(f, path), "cannot write '%s'",
             path.c_str());
}

int
cmdSimulate(const Args &args)
{
    std::string out = args.get("--out", ".");
    WorkloadParams params;
    params.seed = args.getUint("--seed", 0xADA12878);
    params.scaleDivisor =
        args.getInt("--scale", 1000, 1, 100000000);
    params.coverage =
        args.getDouble("--coverage", 30.0, 0.1, 10000.0);
    params.normalCoverage =
        args.getDouble("--normal-coverage", 0.0, 0.0, 10000.0);
    params.readSim.pairedEnd = args.getFlag("--paired", false);
    std::string chroms = args.get("--chromosomes", "");
    if (!chroms.empty())
        params.chromosomes = parseChromosomes(chroms);

    // Open every output before synthesizing: a missing or
    // read-only --out DIR fails in milliseconds, not after the
    // whole workload has been built.
    std::ofstream fa = openOutput(out + "/ref.fa");
    std::ofstream sam = openOutput(out + "/aligned.samlite");
    std::ofstream fq = openOutput(out + "/reads.fq");
    std::ofstream vcf = openOutput(out + "/truth.vcf");
    std::ofstream nf;
    if (params.normalCoverage > 0.0)
        nf = openOutput(out + "/normal.samlite");

    GenomeWorkload wl = buildWorkload(params);
    writeFasta(fa, wl.reference);

    std::vector<Read> all_reads;
    std::vector<Read> all_normal;
    std::vector<Variant> all_truth;
    for (const auto &chr : wl.chromosomes) {
        all_reads.insert(all_reads.end(), chr.reads.begin(),
                         chr.reads.end());
        all_normal.insert(all_normal.end(), chr.normalReads.begin(),
                          chr.normalReads.end());
        all_truth.insert(all_truth.end(), chr.truth.begin(),
                         chr.truth.end());
    }
    if (!all_normal.empty())
        writeSamLite(nf, wl.reference, all_normal);
    writeSamLite(sam, wl.reference, all_reads);
    writeFastq(fq, all_reads);
    writeTruthVcf(vcf, wl.reference, all_truth);
    finishOutput(fa, out + "/ref.fa");
    finishOutput(sam, out + "/aligned.samlite");
    finishOutput(fq, out + "/reads.fq");
    finishOutput(vcf, out + "/truth.vcf");
    if (params.normalCoverage > 0.0)
        finishOutput(nf, out + "/normal.samlite");

    std::printf("wrote %s/{ref.fa, aligned.samlite, reads.fq, "
                "truth.vcf}\n%zu contigs, %zu reads, %zu truth "
                "variants\n",
                out.c_str(), wl.reference.numContigs(),
                all_reads.size(), all_truth.size());
    return 0;
}

int
cmdRealign(const Args &args)
{
    std::string dir = args.get("--dir", ".");
    std::string backend_name = args.get("--backend", "iracc");

    // Validate every numeric flag before touching the filesystem,
    // so a typo'd flag is a fast usage error (exit 2) rather than
    // one discovered after minutes of dataset loading.
    const uint32_t job_threads = static_cast<uint32_t>(
        args.getInt("--job-threads", 1, 1, 1024));
    const uint32_t cards =
        static_cast<uint32_t>(args.getInt("--cards", 1, 1, 64));
    const bool stealing = args.getFlag("--stealing", true);

    // --stream 1: bounded-memory ingest.  Reads are pulled off the
    // SAM-lite file one contig at a time and realigned in groups of
    // --job-threads contigs; peak memory is independent of genome
    // size and the output is byte-identical to the in-memory path
    // (docs/TESTING.md, "Streaming bit-equality").  Requires
    // contig-grouped input (what simulate and realign write).
    const bool stream = args.getFlag("--stream", false);

    // Observability: --counters 1 prints the performance-counter
    // summary; --trace FILE records both the host-side spans and
    // (for accelerated backends) the simulator timeline, merged
    // into one Chrome trace-event JSON; --metrics FILE exports the
    // host metrics registry as JSON, or as Prometheus text when
    // FILE ends in ".prom".
    std::string trace_path = args.get("--trace", "");
    std::string metrics_path = args.get("--metrics", "");
    bool trace = !trace_path.empty();
    bool counters = trace || args.getFlag("--counters", false);

    // Every output path is checked before the inputs load, so a
    // bad path is a fast error rather than one found after the run.
    std::string out = args.get("--out", dir + "/realigned.samlite");
    for (const std::string &path : {out, trace_path, metrics_path}) {
        if (!path.empty())
            requireWritable(path);
    }

    // Hardened execution: --harden 1 turns on the recovery hooks of
    // an accelerated backend's dispatcher (host/scheduler.hh);
    // --fault-plan SPEC additionally injects the given fault
    // schedule into the simulated card (and implies --harden).
    // The exit code reports the run's health: 0 ok, 3 degraded
    // (recovery fired, output still exact), 4 failed (targets left
    // unrealigned).  Like every flag below, it is checked before
    // the reference is read.
    std::string fault_spec = args.get("--fault-plan", "");
    bool harden = !fault_spec.empty() ||
                  args.getFlag("--harden", false);
    FaultPlan fault_plan;
    if (!fault_spec.empty())
        fault_plan = FaultPlan::parse(fault_spec);

    // Flight recorder (always recording): --log-level tails events
    // at or above the given severity to stderr as they happen.
    std::string log_level = args.get("--log-level", "");
    if (!log_level.empty()) {
        int level = -1;
        if (log_level == "error")
            level = 0;
        else if (log_level == "warn")
            level = 1;
        else if (log_level == "info")
            level = 2;
        else if (log_level == "debug")
            level = 3;
        else
            fatal("unknown --log-level '%s' (error, warn, info, "
                  "debug)",
                  log_level.c_str());
        obs::FlightRecorder::instance().setLogLevel(level);
    }

    // The registry is always on: its counters feed the exit
    // summary, and sampling a few histograms per contig is far off
    // the hot path.
    obs::MetricsRegistry registry;
    obs::SpanTracer tracer;
    obs::Observability ob;
    ob.metrics = &registry;
    if (trace) {
        ob.tracer = &tracer;
        tracer.nameCurrentThread("realign driver");
    }

    RealignJobConfig job_cfg;
    job_cfg.threads = job_threads;
    job_cfg.obs = &ob;

    // Post-mortem bundles (core/postmortem.hh): a Degraded or
    // Failed run always writes one; --postmortem DIR picks the
    // directory and forces a bundle even on an Ok run.
    std::string postmortem_dir = args.get("--postmortem", "");
    job_cfg.postmortemAlways = !postmortem_dir.empty();
    job_cfg.postmortemDir = postmortem_dir.empty()
                                ? dir + "/iracc-postmortem"
                                : postmortem_dir;

    // Fleet shape: --cards N leases an N-card fleet per contig
    // (accelerated backends only), --stealing 0 pins every shard
    // to its home card.  Results are bit-identical either way.
    RealignSession session(
        harden ? makeHardenedBackend(backend_name, counters, trace,
                                     fault_plan, {}, cards, stealing)
               : makeBackend(backend_name, counters, trace, cards,
                             stealing),
        job_cfg);

    const std::string reads_path =
        args.get("--reads", dir + "/aligned.samlite");
    FilePassResult pass =
        runFilePass(session, args.get("--ref", dir + "/ref.fa"),
                    reads_path, out, stream, job_cfg);
    const ReferenceGenome &ref = pass.ref;
    if (pass.realigned) {
        std::printf("backend: %s (%s), job threads: %u",
                    session.backend().name().c_str(),
                    session.backend().description().c_str(),
                    job_cfg.threads);
        if (cards > 1)
            std::printf(", cards: %u (stealing %s)", cards,
                        stealing ? "on" : "off");
        std::printf("\n");
        if (!fault_spec.empty())
            std::printf("fault plan: %s\n",
                        fault_plan.describe().c_str());
    }
    fatal_if(!pass.error.empty(), "%s", pass.error.c_str());
    const ParseError &perr = pass.parseError;
    if (!perr.ok() && stream) {
        fatal("streaming ingest of '%s' failed [%s]: %s",
              reads_path.c_str(), streamErrorName(perr.code),
              perr.describe().c_str());
    }
    fatal_if(!perr.ok(), "SAM-lite parse failed: %s",
             perr.describe().c_str());
    if (stream) {
        std::printf("streamed %llu reads in %llu contig batches "
                    "(bounded memory)\n",
                    static_cast<unsigned long long>(pass.reads),
                    static_cast<unsigned long long>(pass.batches));
    }
    const RealignJobResult &job = pass.job;
    const RealignStats &total = job.stats;
    const PerfReport &perf = job.perf;

    std::printf("targets: %llu, reads realigned: %llu / %llu "
                "considered\n",
                static_cast<unsigned long long>(total.targets),
                static_cast<unsigned long long>(
                    total.readsRealigned),
                static_cast<unsigned long long>(
                    total.readsConsidered));
    // Modeled time (cycles / clock) depends on the workload alone;
    // host wall-clock is this machine's.  Each gets its own line.
    if (job.simulated) {
        std::printf("modeled FPGA: %.6f s\n", job.fpgaSeconds);
        std::printf("modeled critical path: %.6f s (slowest contig)\n",
                    job.criticalPathSeconds);
    }
    std::printf("host wall: %.3f s\n", job.wallSeconds);

    // Throughput summary from the metrics registry -- the same
    // counters --metrics exports, so the printed numbers and the
    // exported file can never disagree.
    if (job.wallSeconds > 0.0) {
        std::printf(
            "throughput: %.0f reads/s, %.1f targets/s "
            "(host wall)\n",
            static_cast<double>(
                registry.counterValue("realign.reads_considered")) /
                job.wallSeconds,
            static_cast<double>(
                registry.counterValue("realign.targets")) /
                job.wallSeconds);
    }
    std::printf(
        "whd kernel: %s, %llu comparisons, %llu of %llu offsets "
        "pruned, %llu swept\n",
        simdKernelName(activeSimdKernel()),
        static_cast<unsigned long long>(
            registry.counterValue("realign.whd.comparisons")),
        static_cast<unsigned long long>(
            registry.counterValue("realign.whd.offsets_pruned")),
        static_cast<unsigned long long>(
            registry.counterValue("realign.whd.offsets_evaluated")),
        static_cast<unsigned long long>(
            registry.counterValue("realign.whd.offsets_swept")));
    if (job.simulated) {
        auto sumSeconds = [&registry](const char *name) {
            return 1e-9 * static_cast<double>(
                              registry.histogramSnapshot(name).total());
        };
        std::printf(
            "execute host: %.3f s datapath precompute, %.3f s event "
            "replay, %llu simulator events\n",
            sumSeconds("realign.execute.precompute_ns"),
            sumSeconds("realign.execute.replay_ns"),
            static_cast<unsigned long long>(
                registry.counterValue("realign.execute.sim_events")));
    }
    std::printf("wrote %s\n", out.c_str());

    // Per-target latency percentiles (accelerated backends): the
    // always-on dispatch-to-completion distribution, merged exactly
    // over every contig.  The same histogram backs the registry's
    // realign.target.latency_* metrics and --metrics exports.
    if (job.targetLatencyCycles.count() > 0) {
        const obs::LatencyHistogram &lc = job.targetLatencyCycles;
        const obs::LatencyHistogram &ln = job.targetLatencyNanos;
        std::printf(
            "target latency: p50 %llu cy / p90 %llu cy / p99 %llu "
            "cy / p99.9 %llu cy (max %llu)\n",
            static_cast<unsigned long long>(lc.p50()),
            static_cast<unsigned long long>(lc.p90()),
            static_cast<unsigned long long>(lc.p99()),
            static_cast<unsigned long long>(lc.p999()),
            static_cast<unsigned long long>(lc.max()));
        std::printf(
            "                p50 %.1f us / p90 %.1f us / p99 %.1f "
            "us / p99.9 %.1f us (modeled, %llu targets)\n",
            static_cast<double>(ln.p50()) * 1e-3,
            static_cast<double>(ln.p90()) * 1e-3,
            static_cast<double>(ln.p99()) * 1e-3,
            static_cast<double>(ln.p999()) * 1e-3,
            static_cast<unsigned long long>(ln.count()));
    }

    // Fleet dispatch summary: one row per card, merged over all
    // contig leases.  Busy cycles are each card's final simulated
    // cycle; steals count shards placed off their home card,
    // migrations count targets the hardened path moved off a
    // wedged card.
    if (job.fleet.enabled() && job.fleet.cards.size() > 1) {
        Table ft({"Card", "BusyCycles", "Shards", "Targets",
                  "Steals", "Migrations"});
        for (const FleetCardExecStats &row : job.fleet.cards) {
            ft.addRow({std::to_string(row.card),
                       std::to_string(row.busyCycles),
                       std::to_string(row.shards),
                       std::to_string(row.targets),
                       std::to_string(row.steals),
                       std::to_string(row.migrations)});
        }
        std::printf("\nfleet (%zu cards, %llu leases merged):\n",
                    job.fleet.cards.size(),
                    static_cast<unsigned long long>(
                        job.contigs.size()));
        ft.print();
    }

    if (!metrics_path.empty()) {
        std::ofstream mf = openOutput(metrics_path);
        bool prom = metrics_path.size() >= 5 &&
                    metrics_path.compare(metrics_path.size() - 5, 5,
                                         ".prom") == 0;
        if (prom)
            registry.writePrometheus(mf);
        else
            registry.writeJson(mf);
        finishOutput(mf, metrics_path);
        std::printf("wrote %s (%s metrics)\n", metrics_path.c_str(),
                    prom ? "Prometheus" : "JSON");
    }

    if (counters) {
        if (perf.enabled) {
            std::printf("\n%s", renderPerfSummary(perf).c_str());
        } else {
            std::printf("\n(backend '%s' runs no simulator; "
                        "counters unavailable)\n",
                        backend_name.c_str());
        }
    }
    if (trace) {
        // One merged trace: host wall-clock spans (pid 1000, one
        // tid per worker thread) next to each contig's cycle-domain
        // FPGA timeline (pid = contig id).  Software backends still
        // get the host spans.
        std::ofstream tf = openOutput(trace_path);
        obs::writeUnifiedChromeTrace(
            tf, &tracer, perf.enabled ? &perf : nullptr,
            perf.clockMhz > 0 ? perf.clockMhz : 125.0);
        finishOutput(tf, trace_path);
        std::printf("wrote %s (%zu host spans, %zu sim events; "
                    "open in chrome://tracing or "
                    "https://ui.perfetto.dev)\n",
                    trace_path.c_str(), tracer.spans().size(),
                    perf.enabled ? perf.trace.size() : 0);
    }

    // Health summary.  Hardened runs report how much of the
    // recovery machinery fired; a degraded run's output is still
    // bit-exact, a failed run left reads of the listed contigs
    // unrealigned instead of aborting the job.
    const RecoveryStats &rec = job.recovery;
    if (harden || rec.faultsInjected > 0 || rec.anyRecovery()) {
        std::printf(
            "health: %s (faults injected: %llu, checksum catches: "
            "%llu, watchdog catches: %llu, retries: %llu, software "
            "fallbacks: %llu, quarantined units: %llu, failed "
            "targets: %llu)\n",
            runStatusName(job.status),
            static_cast<unsigned long long>(rec.faultsInjected),
            static_cast<unsigned long long>(
                rec.checksumInputCatches +
                rec.checksumOutputCatches),
            static_cast<unsigned long long>(rec.watchdogCatches),
            static_cast<unsigned long long>(rec.retries),
            static_cast<unsigned long long>(rec.softwareFallbacks),
            static_cast<unsigned long long>(rec.quarantinedUnits),
            static_cast<unsigned long long>(rec.failedTargets));
        auto contigList = [&ref](const std::vector<int32_t> &cs) {
            std::string out;
            for (int32_t c : cs) {
                if (!out.empty())
                    out += ", ";
                out += ref.contig(c).name;
            }
            return out;
        };
        if (!job.degradedContigs.empty())
            std::printf("degraded contigs: %s\n",
                        contigList(job.degradedContigs).c_str());
        if (!job.failedContigs.empty())
            std::printf("failed contigs: %s\n",
                        contigList(job.failedContigs).c_str());
    }
    if (!job.postmortemPath.empty())
        std::printf("post-mortem bundle: %s (render with "
                    "iracc_postmortem)\n",
                    job.postmortemPath.c_str());
    if (job.status == RunStatus::Degraded)
        return 3;
    if (job.status == RunStatus::Failed)
        return 4;
    return 0;
}

int
cmdCall(const Args &args)
{
    std::string dir = args.get("--dir", ".");
    CallerParams params;
    params.lodThreshold =
        args.getDouble("--lod", 6.3, 0.0, 1000.0);
    params.minDepth = static_cast<uint32_t>(
        args.getInt("--min-depth", 8, 1, 1000000));
    std::string out = args.get("--out", dir + "/calls.vcf");
    requireWritable(out);

    ReferenceGenome ref = loadReference(
        args.get("--ref", dir + "/ref.fa"));
    std::vector<Read> reads = loadReads(
        args.get("--reads", dir + "/realigned.samlite"), ref);

    std::vector<CalledVariant> all_calls;
    for (size_t c = 0; c < ref.numContigs(); ++c) {
        auto calls = callVariants(
            ref, reads, static_cast<int32_t>(c), 0,
            ref.contig(static_cast<int32_t>(c)).length(), params);
        all_calls.insert(all_calls.end(), calls.begin(),
                         calls.end());
    }

    std::ofstream f = openOutput(out);
    writeVcf(f, ref, all_calls);
    finishOutput(f, out);

    int64_t snvs = 0, indels = 0;
    for (const auto &v : all_calls)
        (v.type == VariantType::Snv ? snvs : indels) += 1;
    std::printf("called %zu variants (%lld SNVs, %lld indels)\n"
                "wrote %s\n",
                all_calls.size(), static_cast<long long>(snvs),
                static_cast<long long>(indels), out.c_str());
    return 0;
}

int
cmdStats(const Args &args)
{
    std::string dir = args.get("--dir", ".");
    ReferenceGenome ref = loadReference(
        args.get("--ref", dir + "/ref.fa"));
    std::vector<Read> reads = loadReads(
        args.get("--reads", dir + "/aligned.samlite"), ref);

    Table t({"Contig", "Length", "Reads", "Coverage", "WithIndel",
             "Duplicates"});
    for (size_t c = 0; c < ref.numContigs(); ++c) {
        const Contig &ctg = ref.contig(static_cast<int32_t>(c));
        int64_t n = 0, bases = 0, indel = 0, dup = 0;
        for (const Read &r : reads) {
            if (r.contig != static_cast<int32_t>(c))
                continue;
            ++n;
            bases += static_cast<int64_t>(r.length());
            indel += r.cigar.hasIndel() ? 1 : 0;
            dup += r.duplicate ? 1 : 0;
        }
        t.addRow({ctg.name, std::to_string(ctg.length()),
                  std::to_string(n),
                  Table::num(static_cast<double>(bases) /
                                 static_cast<double>(ctg.length()),
                             1) + "x",
                  std::to_string(indel), std::to_string(dup)});
    }
    t.print();
    return 0;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: iracc_cli <command> [--option value ...]\n\n"
        "commands:\n"
        "  simulate  --out DIR [--chromosomes 21,22] [--scale N]\n"
        "            [--coverage X] [--normal-coverage X]\n"
        "            [--paired 1] [--seed N]\n"
        "  realign   --dir DIR [--backend NAME] [--ref F]\n"
        "            [--reads F] [--out F] [--job-threads N]\n"
        "            [--cards N] [--stealing 0|1] [--stream 1]\n"
        "            [--counters 1] [--trace trace.json]\n"
        "            [--metrics metrics.json|metrics.prom]\n"
        "            [--harden 1] [--fault-plan SPEC]\n"
        "            [--log-level error|warn|info|debug]\n"
        "            [--postmortem DIR]\n"
        "            (realign exits 0 ok / 3 degraded / 4 failed;\n"
        "             degraded/failed runs write a post-mortem\n"
        "             bundle under --dir automatically)\n"
        "  call      --dir DIR [--ref F] [--reads F] [--out F]\n"
        "            [--lod X] [--min-depth N]\n"
        "  stats     --dir DIR [--ref F] [--reads F]\n\n"
        "backends: gatk3 gatk3-1t adam native iracc iracc-taskp\n"
        "          iracc-taskp-async hls\n");
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    if (argc < 2) {
        usage();
        return 2;
    }
    std::string cmd = argv[1];
    Args args(argc, argv, 2, "iracc_cli");
    if (cmd == "simulate")
        return cmdSimulate(args);
    if (cmd == "realign")
        return cmdRealign(args);
    if (cmd == "call")
        return cmdCall(args);
    if (cmd == "stats")
        return cmdStats(args);
    usage();
    return 2;
}
