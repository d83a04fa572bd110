/**
 * @file
 * The two in-process workloads:
 *
 *   wgs_file    readFasta + readSamLite -> RealignSession::run on
 *               the iracc backend (2 job threads) -> writeSamLite,
 *               the `iracc_cli realign` path
 *   wgs_api_sw  reads already in memory -> RealignSession::run on a
 *               pruned software backend with no work amplification
 *               (1 kernel thread per contig x 2 job threads)
 *
 * wgs_file's untimed warm-up pass goes through the streamed entry
 * point instead (readFasta -> runStreamed over a SamLiteBatchSource,
 * `iracc_cli realign --stream 1`), so every run also checks the
 * streamed output and that its modeled counters equal the in-memory
 * passes'.
 *
 * Untraced passes call the public entry points above.  A traced
 * wgs_file / wgs_api_sw pass instead drives every contig through
 * the stage calls the job engine makes (planStage, prepareStage,
 * makeExecuteStage()->execute, applyStage) on the same worker
 * count, so stage spans can be recorded from outside; its output
 * must match the oracle like every other pass.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "genomics/io.hh"
#include "genomics/stream_io.hh"

namespace perfbench {

using namespace iracc;

namespace {

// Two job threads leave half of a 4-vCPU host to everything else, so
// a neighbour's burst does not stall the fork-join's slowest worker
// (the iracc backend's Execute still adds its own irCompute pool).
constexpr uint32_t kJobThreads = 2;
constexpr int kSetupBatch = 1024;
constexpr int kSetupSamplesPerPass = 3;

enum class Path
{
    File,
    Api
};

Path
pathOf(const std::string &workload)
{
    return workload == "wgs_file" ? Path::File : Path::Api;
}

std::unique_ptr<RealignerBackend>
makeWorkloadBackend(Path p)
{
    if (p != Path::Api)
        return makeBackend("iracc");
    // Configured like the "native" registry entry (pruned, no work
    // amplification) but with one kernel thread per contig, so job
    // threads x kernel threads stays within half a 4-core host.
    SoftwareRealignerConfig sw;
    sw.prune = true;
    sw.threads = 1;
    sw.workAmplification = 1.0;
    return makeSoftwareBackend("native-1t", "pruned software IR, 1 thread",
                               sw);
}

std::unique_ptr<RealignSession>
makeSession(Path p)
{
    RealignJobConfig cfg;
    cfg.threads = kJobThreads;
    return std::make_unique<RealignSession>(makeWorkloadBackend(p), cfg);
}

/**
 * One set-up sample: the mean CPU seconds of a batch of backend +
 * session constructions (one construction is too short for the
 * clock).
 */
double
setupSample(Path p)
{
    std::vector<std::unique_ptr<RealignSession>> made(kSetupBatch);
    const double c0 = processCpuNow();
    for (auto &s : made)
        s = makeSession(p);
    return (processCpuNow() - c0) / kSetupBatch;
}

std::vector<int32_t>
allContigs(const ReferenceGenome &ref)
{
    std::vector<int32_t> out;
    for (size_t c = 0; c < ref.numContigs(); ++c)
        out.push_back(static_cast<int32_t>(c));
    return out;
}

/** Inputs and outputs of one run. */
struct Files
{
    std::string fa, sam, out;
    uint64_t inBytes = 0;
};

/** One pass: its timings, output digest, and job result. */
struct PassOut
{
    double wall = 0.0;
    double cpu = 0.0;
    double job = 0.0;
    uint64_t digest = 0;
    RealignJobResult result;
    bool parseOk = true;

    // Inputs of the per-layer metrics.
    uint64_t batches = 0;
    uint64_t readsParsed = 0;
    uint64_t bytesWritten = 0;
    uint64_t marshalledBytes = 0;
    double barrierWait = 0.0;
};

void
writeOut(const std::string &path, const ReferenceGenome &ref,
         const std::vector<Read> &reads)
{
    std::ofstream f(path);
    writeSamLite(f, ref, reads);
    f.close();
    if (!f)
        throw std::runtime_error("cannot write '" + path + "'");
}

/**
 * The job engine's fork-join, replayed stage by stage through the
 * public stage calls so each stage can be spanned.  Mirrors
 * RealignSession::run: partition once, cap workers at the contig
 * count and hardware concurrency, one Execute stage per contig,
 * results merged in contig order.
 */
RealignJobResult
driveStages(const RealignerBackend &be, const ReferenceGenome &ref,
            std::vector<Read> &reads, Tracer &tr, int parent, int pass,
            PassOut *po)
{
    Scope realign(tr, "core.realign", parent, pass);
    const std::vector<int32_t> order = allContigs(ref);
    std::vector<std::vector<uint32_t>> byContig(order.size());
    {
        Scope part(tr, "core.partition", realign.id(), pass);
        for (uint32_t i = 0; i < reads.size(); ++i) {
            const auto c = static_cast<size_t>(reads[i].contig);
            if (c < byContig.size())
                byContig[c].push_back(i);
        }
    }
    const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
    const uint32_t workers = static_cast<uint32_t>(std::min<size_t>(
        std::min(kJobThreads, hw), order.size()));

    RealignJobResult job;
    job.contigs.resize(order.size());
    std::vector<uint64_t> marshalled(order.size(), 0);
    std::vector<double> idleFrom(std::max(workers, 1u), 0.0);
    std::atomic<size_t> next{0};
    auto work = [&](uint32_t w) {
        for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= order.size())
                break;
            const int32_t contig = order[i];
            Scope cs(tr, "core.contig", realign.id(), pass);
            auto exec = be.makeExecuteStage(workers);
            const bool accel = exec->needsMarshalledTargets();
            ContigPlan plan;
            {
                Scope s(tr, "realign.plan", cs.id(), pass);
                plan = planStage(ref, contig, reads, be.targetParams(),
                                 &byContig[i]);
            }
            PreparedContig prep;
            {
                Scope s(tr, "realign.prepare", cs.id(), pass);
                prep = prepareStage(ref, reads, plan, accel,
                                    be.hostThreads());
            }
            ExecuteOutcome out;
            {
                Scope s(tr, accel ? "host.execute" : "realign.kernel",
                        cs.id(), pass);
                out = exec->execute(prep, kRealignStreamSeed);
            }
            BackendRunResult &run = job.contigs[i].run;
            {
                Scope s(tr, "realign.apply", cs.id(), pass);
                run.stats = applyStage(prep, out.decisions, reads);
            }
            job.contigs[i].contig = contig;
            run.stats.whd = out.whd;
            run.fpgaSeconds = out.fpgaSeconds;
            run.dmaFraction = out.dmaFraction;
            run.unitUtilization = out.unitUtilization;
            run.fleet = std::move(out.fleet);
            run.targetLatencyCycles = out.targetLatencyCycles;
            run.status = out.status;
            for (const MarshalledTarget &m : prep.marshalled)
                marshalled[i] += m.totalInputBytes();
        }
        idleFrom[w] = now();
    };
    if (workers <= 1) {
        work(0);
    } else {
        std::vector<std::thread> pool;
        for (uint32_t w = 0; w < workers; ++w)
            pool.emplace_back(work, w);
        Scope barrier(tr, "core.barrier", realign.id(), pass);
        for (std::thread &t : pool)
            t.join();
        const double end = now();
        for (double t : idleFrom)
            po->barrierWait += end - t;
    }
    for (size_t i = 0; i < order.size(); ++i) {
        const BackendRunResult &run = job.contigs[i].run;
        job.stats.merge(run.stats);
        job.targetLatencyCycles.merge(run.targetLatencyCycles);
        job.status = worseStatus(job.status, run.status);
        po->marshalledBytes += marshalled[i];
    }
    return job;
}

/** The workload's pass, untraced (tr off) or traced (tr on). */
class Workload
{
  public:
    explicit Workload(const Options &opt) : path(pathOf(opt.workload))
    {
        files.fa = opt.dir + "/genome.fa";
        files.sam = opt.dir + "/genome.samlite";
        files.out = opt.dir + "/realigned.samlite";
        files.inBytes = fileBytes(files.fa) + fileBytes(files.sam);
        if (path == Path::Api) {
            // The embedding caller already holds the reads.
            ref = loadFasta(files.fa);
            pristine = loadSamLite(files.sam, ref);
        }
        session = makeSession(path);
    }

    /** One pass; @p streamed runs wgs_file through runStreamed. */
    PassOut
    pass(Tracer &tr, int id, bool corrupt, bool streamed = false)
    {
        PassOut o;
        // Restoring the caller's pristine reads is the benchmark's
        // bookkeeping, not part of the measured pass.
        std::vector<Read> work;
        if (path == Path::Api)
            work = pristine;
        // A fresh file each pass: rewriting a truncated one makes the
        // filesystem flush it at close, which is disk noise.
        std::remove(files.out.c_str());
        const double t0 = now();
        const double c0 = processCpuNow();
        {
            Scope top(tr, "pass", -1, id);
            if (streamed)
                streamPass(o);
            else if (path == Path::File)
                filePass(tr, top.id(), id, o);
            else
                apiPass(tr, top.id(), id, o, work);
        }
        o.wall = now() - t0;
        o.cpu = processCpuNow() - c0;
        if (path == Path::Api) {
            if (corrupt && !work.empty())
                work[work.size() / 2].name += "~";
            o.digest = digestReads(ref, work);
        } else {
            if (corrupt)
                corruptFile(files.out);
            o.digest = digestFile(files.out);
            o.bytesWritten = fileBytes(files.out);
        }
        return o;
    }

    const Files &io() const { return files; }
    Path kind() const { return path; }
    const RealignerBackend &backend() const { return session->backend(); }

  private:
    void
    filePass(Tracer &tr, int top, int id, PassOut &o)
    {
        ReferenceGenome r;
        std::vector<Read> reads;
        {
            Scope s(tr, "genomics.readFasta", top, id);
            r = loadFasta(files.fa);
        }
        {
            Scope s(tr, "genomics.readSamLite", top, id);
            reads = loadSamLite(files.sam, r);
        }
        o.readsParsed = reads.size();
        o.batches = 1;
        const double j0 = now();
        if (tr.on())
            o.result = driveStages(backend(), r, reads, tr, top, id, &o);
        else
            o.result = session->run(r, allContigs(r), reads);
        o.job = now() - j0;
        {
            Scope s(tr, "genomics.writeSamLite", top, id);
            writeOut(files.out, r, reads);
        }
        // Freeing the parsed genome is part of the pass too.
        Scope s(tr, "genomics.release", top, id);
        std::vector<Read>().swap(reads);
        r = ReferenceGenome();
    }

    void
    streamPass(PassOut &o)
    {
        ReferenceGenome r = loadFasta(files.fa);
        std::ifstream in(files.sam);
        std::ofstream out(files.out);
        if (!in || !out)
            throw std::runtime_error("cannot open stream files");
        SamLiteBatchSource src(in, r);
        StreamRealignResult sr = session->runStreamed(
            r, src,
            [&](std::vector<Read> &group) { writeSamLite(out, r, group); });
        o.result = std::move(sr.job);
        o.parseOk = sr.parseOk;
        out.close();
        if (!out)
            throw std::runtime_error("cannot write '" + files.out + "'");
    }

    void
    apiPass(Tracer &tr, int top, int id, PassOut &o,
            std::vector<Read> &work)
    {
        const double j0 = now();
        if (tr.on())
            o.result = driveStages(backend(), ref, work, tr, top, id, &o);
        else
            o.result = session->run(ref, allContigs(ref), work);
        o.job = now() - j0;
    }

    Path path;
    Files files;
    ReferenceGenome ref;
    std::vector<Read> pristine;
    std::unique_ptr<RealignSession> session;
};

/** Why a pass failed, or "" when it passed every check. */
std::string
checkPass(const Expected &want, const PassOut &o, const Modeled &m,
          const Modeled &first, bool ledgerOk)
{
    if (!o.parseOk)
        return "stream parse error";
    if (o.result.status != RunStatus::Ok)
        return "job status not ok";
    if (o.digest != want.digest)
        return "output digest differs from the oracle";
    if (o.result.stats.targets != want.targets ||
        o.result.stats.readsRealigned != want.readsRealigned)
        return "statistics differ from the oracle";
    if (!(m == first))
        return "modeled counters did not repeat across passes";
    if (!ledgerOk)
        return "modeled counters differ from an earlier run of this "
               "build on these inputs";
    return "";
}

/** Per-layer values of one traced pass. */
std::map<std::string, double>
layersOf(const Workload &w, const PassOut &o, const std::vector<Span> &all,
         int pass)
{
    std::vector<Span> spans;
    int top = -1;
    for (size_t i = 0; i < all.size(); ++i) {
        if (all[i].pass != pass)
            continue;
        if (all[i].parent == -1)
            top = static_cast<int>(i);
        spans.push_back(all[i]);
    }
    const double wall = all[static_cast<size_t>(top)].end -
                        all[static_cast<size_t>(top)].start;

    std::map<std::string, double> v;
    v["genomics.ingest_s"] = spanTotal(spans, "genomics.readFasta") +
                             spanTotal(spans, "genomics.readSamLite");
    if (w.kind() != Path::Api) {
        v["genomics.ingest_mb_per_s"] =
            static_cast<double>(w.io().inBytes) / 1e6 /
            v["genomics.ingest_s"];
        v["genomics.reads_parsed"] = static_cast<double>(o.readsParsed);
        v["genomics.batches"] = static_cast<double>(o.batches);
        v["genomics.write_s"] = spanTotal(spans, "genomics.writeSamLite");
        v["genomics.bytes_written"] = static_cast<double>(o.bytesWritten);
        v["genomics.write_mb_per_s"] =
            static_cast<double>(o.bytesWritten) / 1e6 /
            v["genomics.write_s"];
    }
    v["core.realign_s"] = spanTotal(spans, "core.realign");
    v["core.contig_max_s"] = spanMax(spans, "core.contig");
    v["core.barrier_wait_s"] = o.barrierWait;
    v["realign.plan_s"] = spanTotal(spans, "realign.plan");
    v["realign.prepare_s"] = spanTotal(spans, "realign.prepare");
    v["realign.apply_s"] = spanTotal(spans, "realign.apply");
    v["realign.kernel_s"] = spanTotal(spans, "realign.kernel");
    v["host.execute_s"] = spanTotal(spans, "host.execute");
    v["realign.marshalled_bytes"] = static_cast<double>(o.marshalledBytes);

    const RealignStats &st = o.result.stats;
    v["realign.targets"] = static_cast<double>(st.targets);
    v["realign.reads_considered"] = static_cast<double>(st.readsConsidered);
    v["realign.consensuses"] = static_cast<double>(st.consensusesEvaluated);
    v["realign.reads_realigned"] = static_cast<double>(st.readsRealigned);
    v["realign.whd_comparisons"] = static_cast<double>(st.whd.comparisons);
    if (st.whd.offsetsEvaluated > 0) {
        v["realign.offsets_pruned_frac"] =
            static_cast<double>(st.whd.offsetsPruned) /
            static_cast<double>(st.whd.offsetsEvaluated);
    }
    if (v["realign.kernel_s"] > 0.0) {
        v["realign.comparisons_per_s"] =
            static_cast<double>(st.whd.comparisons) / v["realign.kernel_s"];
    }

    const Modeled m = modeledOf(o.result);
    if (m.fpgaCycles > 0) {
        double dma = 0.0, util = 0.0;
        for (const ContigJobResult &c : o.result.contigs) {
            const double cyc = static_cast<double>(c.run.fleet.busyCycles());
            dma += c.run.dmaFraction * cyc;
            util += c.run.unitUtilization * cyc;
        }
        const double cycles = static_cast<double>(m.fpgaCycles);
        v["host.fpga_s"] = m.fpgaSeconds;
        v["host.fpga_cycles"] = cycles;
        v["host.dma_frac"] = dma / cycles;
        v["host.unit_util"] = util / cycles;
        v["host.target_latency_p50_cycles"] =
            static_cast<double>(o.result.targetLatencyCycles.p50());
        v["host.target_latency_p99_cycles"] =
            static_cast<double>(o.result.targetLatencyCycles.p99());
        if (v["host.execute_s"] > 0.0)
            v["host.sim_cycles_per_s"] = cycles / v["host.execute_s"];
    }
    v["trace.unattributed_frac"] = 1.0 - childTotal(all, top) / wall;
    return v;
}

} // namespace

void
runInProcess(const Options &opt, Report &rep)
{
    const Expected want = readOracle(opt.dir).at("genome");
    Workload w(opt);

    Tracer off(false);
    Tracer tr(opt.trace);
    const std::string ledgerKind = w.kind() == Path::Api ? "native-1t"
                                                         : "iracc";
    Modeled first;
    bool haveFirst = false;
    auto account = [&](const PassOut &o) {
        const Modeled m = modeledOf(o.result);
        bool ledgerOk = true;
        if (!haveFirst) {
            first = m;
            haveFirst = true;
            ledgerOk = ledgerMatches(opt, ledgerKind, m);
        }
        const std::string why = checkPass(want, o, m, first, ledgerOk);
        rep.op(!why.empty(), why);
    };

    // Untraced passes give the end-to-end metrics; a traced run
    // spends half its window on them (the overhead baseline) and
    // half on traced passes.
    const double untracedWindow = opt.trace ? opt.seconds / 2 : opt.seconds;
    // Set-up is sampled between the passes (the session the passes
    // use was built the same way before the first one), so the
    // median spans the whole window's host load, not one moment's.
    std::vector<double> passWalls, passCpus, jobWalls, rss, setup;
    // One untimed warm-up pass (checked like the others) fills the
    // page cache and the allocator before the window opens.  On
    // wgs_file it is a streamed pass, and it sets the modeled
    // counters every in-memory pass must then repeat exactly.
    account(w.pass(off, 0, opt.corrupt, w.kind() == Path::File));
    const double t0 = now();
    do {
        resetPeakRss();
        PassOut o = w.pass(off, 0, false);
        rss.push_back(peakRssMb());
        for (int i = 0; i < kSetupSamplesPerPass; ++i)
            setup.push_back(setupSample(w.kind()));
        passWalls.push_back(o.wall);
        passCpus.push_back(o.cpu);
        jobWalls.push_back(o.job);
        account(o);
    } while (now() - t0 < untracedWindow);
    const double reads = static_cast<double>(want.reads);

    if (!opt.trace) {
        std::printf("samples: %zu passes, %zu set-ups\n", passCpus.size(),
                    setup.size());
        addEndToEnd(rep,
                    {{"setup_s", percentile(setup, 0.5)},
                     {"cpu_us_per_read",
                      percentile(passCpus, 0.5) / reads * 1e6},
                     {"peak_rss_mb", percentile(rss, 0.5)}});
        return;
    }

    std::vector<double> tracedCpus;
    std::vector<std::map<std::string, double>> perPass;
    std::vector<PassOut> traced;
    const double t1 = now();
    int id = 0;
    do {
        PassOut o = w.pass(tr, ++id, false);
        tracedCpus.push_back(o.cpu);
        account(o);
        traced.push_back(std::move(o));
    } while (now() - t1 < opt.seconds / 2);
    const std::vector<Span> spans = tr.spans();
    for (size_t i = 0; i < traced.size(); ++i)
        perPass.push_back(layersOf(w, traced[i], spans,
                                   static_cast<int>(i + 1)));
    std::map<std::string, double> mean;
    for (const auto &p : perPass) {
        for (const auto &kv : p)
            mean[kv.first] += kv.second / static_cast<double>(perPass.size());
    }
    mean["trace.overhead_frac"] =
        percentile(tracedCpus, 0.5) / percentile(passCpus, 0.5) - 1.0;
    const double p50 = percentile(passWalls, 0.5);
    mean["wall.reads_per_s"] = reads / p50;
    mean["wall.pass_p50_s"] = p50;
    mean["wall.job_p50_s"] = percentile(jobWalls, 0.5);
    std::printf("samples: %zu untraced passes, %zu traced passes\n",
                passWalls.size(), tracedCpus.size());
    addPerLayer(rep, mean);
    if (!opt.traceOut.empty() && !tr.write(opt.traceOut))
        throw std::runtime_error("cannot write " + opt.traceOut);
}

} // namespace perfbench
