/**
 * @file
 * Tests for the genome-level RealignJob engine: a multi-contig
 * read set through the staged pipeline must produce bit-identical
 * read updates and statistics for every backend, for any job
 * thread count, and for the per-contig shim -- the refactor's
 * central guarantee.
 */

#include <gtest/gtest.h>

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/realign_job.hh"
#include "core/workload.hh"
#include "obs/obs.hh"
#include "realign/whd_simd.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace iracc {
namespace {

WorkloadParams
multiContigWorkload()
{
    WorkloadParams params;
    params.chromosomes = {20, 21, 22};
    params.scaleDivisor = 10000;
    params.minContigLength = 25000;
    params.coverage = 15.0;
    params.variants.insRate = 4e-4;
    params.variants.delRate = 4e-4;
    return params;
}

std::vector<Read>
allReads(const GenomeWorkload &wl)
{
    std::vector<Read> out;
    for (const auto &chr : wl.chromosomes)
        out.insert(out.end(), chr.reads.begin(), chr.reads.end());
    return out;
}

/** Alignment fingerprint of one read set (pos + CIGAR per read). */
std::vector<std::string>
fingerprint(const std::vector<Read> &reads)
{
    std::vector<std::string> out;
    out.reserve(reads.size());
    for (const Read &r : reads) {
        out.push_back(std::to_string(r.contig) + ":" +
                      std::to_string(r.pos) + ":" +
                      r.cigar.toString());
    }
    return out;
}

/**
 * Decision-level statistics must agree across *backends* (the
 * bit-equality guarantee); kernel-work counters (comparisons,
 * pruned offsets) legitimately differ between pruning and
 * non-pruning backends, so they are only compared within one
 * backend (expectWhdEqual).
 */
void
expectStatsEqual(const RealignStats &a, const RealignStats &b,
                 const std::string &what)
{
    EXPECT_EQ(a.targets, b.targets) << what;
    EXPECT_EQ(a.readsConsidered, b.readsConsidered) << what;
    EXPECT_EQ(a.readsRealigned, b.readsRealigned) << what;
    EXPECT_EQ(a.consensusesEvaluated, b.consensusesEvaluated)
        << what;
}

void
expectWhdEqual(const WhdStats &a, const WhdStats &b,
               const std::string &what)
{
    EXPECT_EQ(a.comparisons, b.comparisons) << what;
    EXPECT_EQ(a.offsetsEvaluated, b.offsetsEvaluated) << what;
    EXPECT_EQ(a.offsetsPruned, b.offsetsPruned) << what;
}

TEST(RealignJob, GenomeWideBitEqualityAcrossBackendsAndThreads)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(multiContigWorkload());
    std::vector<Read> base = allReads(wl);

    // Reference result: the single-threaded software baseline,
    // serial contig loop.
    std::vector<Read> want = base;
    RealignJobResult ref_job =
        makeSession("gatk3-1t").run(wl.reference, want);
    ASSERT_GT(ref_job.stats.targets, 0u);
    ASSERT_EQ(ref_job.contigs.size(), 3u);
    std::vector<std::string> want_fp = fingerprint(want);

    for (const char *name : {"gatk3", "native", "iracc"}) {
        RealignStats serial_stats;
        for (uint32_t threads : {1u, 4u}) {
            RealignJobConfig cfg;
            cfg.threads = threads;
            std::vector<Read> reads = base;
            RealignJobResult job =
                makeSession(name, cfg).run(wl.reference, reads);

            std::string what = std::string(name) + " threads=" +
                               std::to_string(threads);
            EXPECT_EQ(fingerprint(reads), want_fp) << what;
            expectStatsEqual(job.stats, ref_job.stats, what);
            EXPECT_EQ(job.contigs.size(), 3u) << what;
            EXPECT_GT(job.seconds, 0.0) << what;
            EXPECT_GT(job.wallSeconds, 0.0) << what;
            EXPECT_GT(job.criticalPathSeconds, 0.0) << what;
            EXPECT_LE(job.criticalPathSeconds, job.seconds) << what;

            // Within one backend, the full statistics -- kernel
            // work counters included -- must be identical for any
            // worker count.
            if (threads == 1)
                serial_stats = job.stats;
            else
                expectWhdEqual(job.stats.whd, serial_stats.whd,
                               what + " vs threads=1");
        }
    }
}

TEST(RealignJob, FleetBitEqualityAcrossCardsThreadsStealing)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(multiContigWorkload());
    std::vector<Read> base = allReads(wl);

    // Reference: the single-card serial accelerated run.  Every
    // fleet shape must reproduce it bit for bit -- card placement
    // only moves work between private virtual timelines, never
    // into the datapath.
    std::vector<Read> want = base;
    RealignJobResult ref_job =
        RealignSession(makeBackend("iracc")).run(wl.reference, want);
    ASSERT_GT(ref_job.stats.targets, 0u);
    std::vector<std::string> want_fp = fingerprint(want);

    for (uint32_t cards : {1u, 2u, 4u}) {
        for (uint32_t threads : {1u, 4u}) {
            for (bool stealing : {true, false}) {
                RealignJobConfig cfg;
                cfg.threads = threads;
                std::vector<Read> reads = base;
                RealignJobResult job =
                    RealignSession(makeBackend("iracc", false,
                                               false, cards,
                                               stealing),
                                   cfg)
                        .run(wl.reference, reads);

                std::string what =
                    "cards=" + std::to_string(cards) +
                    " threads=" + std::to_string(threads) +
                    (stealing ? " steal=on" : " steal=off");
                EXPECT_EQ(fingerprint(reads), want_fp) << what;
                expectStatsEqual(job.stats, ref_job.stats, what);
                expectWhdEqual(job.stats.whd, ref_job.stats.whd,
                               what);

                // Dispatch accounting: one row per card, every
                // target placed exactly once, and no steals when
                // stealing is off.
                ASSERT_TRUE(job.fleet.enabled()) << what;
                EXPECT_EQ(job.fleet.cards.size(), cards) << what;
                uint64_t placed = 0;
                for (const auto &row : job.fleet.cards)
                    placed += row.targets;
                EXPECT_EQ(placed, job.stats.targets) << what;
                if (!stealing)
                    EXPECT_EQ(job.fleet.steals(), 0u) << what;
            }
        }
    }
}

TEST(RealignJob, MatchesPerContigShim)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(multiContigWorkload());

    // One-contig runs, one contig at a time.
    std::vector<Read> shim_reads = allReads(wl);
    RealignSession per_contig = makeSession("native");
    RealignStats shim_stats;
    for (const auto &chr : wl.chromosomes) {
        RealignJobResult run = per_contig.runContig(
            wl.reference, chr.contig, shim_reads);
        shim_stats.merge(run.stats);
    }

    // One parallel genome-wide job.
    RealignJobConfig cfg;
    cfg.threads = 4;
    std::vector<Read> job_reads = allReads(wl);
    RealignJobResult job =
        makeSession("native", cfg).run(wl.reference, job_reads);

    EXPECT_EQ(fingerprint(job_reads), fingerprint(shim_reads));
    expectStatsEqual(job.stats, shim_stats, "job vs shim");
    expectWhdEqual(job.stats.whd, shim_stats.whd, "job vs shim");
}

TEST(RealignJob, ModeledSecondsInvariantUnderThreads)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(multiContigWorkload());

    // The accelerated backend's per-contig seconds are simulated
    // FPGA cycles plus host time; the cycle part must be exactly
    // reproducible, so compare fpgaSeconds across thread counts.
    double fpga[2] = {0.0, 0.0};
    int idx = 0;
    for (uint32_t threads : {1u, 4u}) {
        RealignJobConfig cfg;
        cfg.threads = threads;
        std::vector<Read> reads = allReads(wl);
        RealignJobResult job =
            makeSession("iracc", cfg).run(wl.reference, reads);
        EXPECT_TRUE(job.simulated);
        fpga[idx++] = job.fpgaSeconds;
    }
    EXPECT_DOUBLE_EQ(fpga[0], fpga[1]);
}

TEST(RealignJob, MergesPerfCountersAcrossContigs)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(multiContigWorkload());

    RealignJobConfig cfg;
    cfg.threads = 4;
    RealignSession session =
        makeSession("iracc", cfg, /*perf_counters=*/true,
                    /*perf_trace=*/true);
    std::vector<Read> reads = allReads(wl);
    RealignJobResult job = session.run(wl.reference, reads);

    ASSERT_TRUE(job.perf.enabled);
    uint64_t unit_targets = 0;
    for (const auto &u : job.perf.units)
        unit_targets += u.targets;
    EXPECT_EQ(unit_targets, job.stats.targets);

    // Trace events carry the contig id as their pid, one process
    // per contig in the merged Chrome trace.
    ASSERT_FALSE(job.perf.trace.empty());
    std::vector<bool> seen(wl.chromosomes.size(), false);
    for (const auto &ev : job.perf.trace) {
        ASSERT_LT(ev.pid, seen.size());
        seen[ev.pid] = true;
    }
    for (size_t c = 0; c < seen.size(); ++c)
        EXPECT_TRUE(seen[c]) << "no trace events for contig " << c;
}

TEST(RealignJob, PublishesWhdCountersIdenticalUnderEveryKernel)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(multiContigWorkload());

    // The pruned software kernel (pruneChunk == 1) and the
    // accelerated datapath (pruneChunk == width) both publish.  The
    // accelerated backend also publishes its Execute split; its
    // simulator event count is kernel-independent too.
    for (const char *name : {"native", "iracc"}) {
        const bool accel = std::string(name) == "iracc";
        std::vector<uint64_t> want;
        for (WhdKernel kernel : supportedWhdKernels()) {
            ScopedWhdKernel pin(kernel);
            obs::MetricsRegistry registry;
            obs::Observability ob;
            ob.metrics = &registry;
            RealignJobConfig cfg;
            cfg.threads = 2;
            cfg.obs = &ob;
            std::vector<Read> reads = allReads(wl);
            RealignJobResult job =
                makeSession(name, cfg).run(wl.reference, reads);

            const std::string what = std::string(name) + " kernel=" +
                                     whdKernelName(kernel);
            const std::vector<uint64_t> got = {
                registry.counterValue("realign.whd.comparisons"),
                registry.counterValue("realign.whd.offsets_evaluated"),
                registry.counterValue("realign.whd.offsets_pruned"),
                registry.counterValue("realign.execute.sim_events")};
            EXPECT_EQ(got[0], job.stats.whd.comparisons) << what;
            EXPECT_EQ(got[1], job.stats.whd.offsetsEvaluated) << what;
            EXPECT_EQ(got[2], job.stats.whd.offsetsPruned) << what;
            EXPECT_GT(got[2], 0u) << what;
            EXPECT_EQ(got[3], job.execHost.simEvents) << what;
            EXPECT_EQ(got[3] > 0, accel) << what;
            // One sample per job, summed over its contigs; software
            // backends run no simulator and publish none.
            EXPECT_EQ(registry
                          .histogramSnapshot("realign.execute.replay_ns")
                          .count(),
                      accel ? 1u : 0u)
                << what;
            EXPECT_EQ(registry
                          .histogramSnapshot(
                              "realign.execute.precompute_ns")
                          .total(),
                      obs::nanos(job.execHost.precomputeSeconds))
                << what;
            EXPECT_EQ(job.execHost.precomputeSeconds > 0.0, accel)
                << what;
            if (want.empty())
                want = got;
            else
                EXPECT_EQ(got, want) << what << " vs scalar";
        }
    }
}

TEST(RealignJob, TargetLatencyNanosRoundToTheCycle)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(multiContigWorkload());
    std::vector<Read> reads = allReads(wl);
    RealignJobResult job =
        makeSession("iracc").run(wl.reference, reads);

    // The card runs at 125 MHz, so every cycle is exactly 8 ns and
    // the nanosecond histogram must be the cycle histogram times 8:
    // a latency truncated toward zero would fall 1 ns short.
    const obs::LatencyHistogram &cyc = job.targetLatencyCycles;
    const obs::LatencyHistogram &ns = job.targetLatencyNanos;
    ASSERT_GT(cyc.count(), 0u);
    EXPECT_EQ(ns.count(), cyc.count());
    EXPECT_EQ(ns.total(), 8 * cyc.total());
    EXPECT_EQ(ns.min(), 8 * cyc.min());
    EXPECT_EQ(ns.max(), 8 * cyc.max());
}

/** Value of the Prometheus sample line "@p series <v>" in @p text. */
double
promSample(const std::string &text, const std::string &series)
{
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind(series + " ", 0) == 0)
            return std::stod(line.substr(series.size() + 1));
    }
    ADD_FAILURE() << "no sample '" << series << "' in:\n" << text;
    return -1.0;
}

TEST(RealignJob, OneMeasurementOneNumber)
{
    setQuiet(true);
    WorkloadParams params = multiContigWorkload();
    params.chromosomes = {21, 22};
    GenomeWorkload wl = buildWorkload(params);

    obs::MetricsRegistry registry;
    obs::Observability ob;
    ob.metrics = &registry;
    RealignJobConfig cfg;
    cfg.threads = 2;
    cfg.obs = &ob;
    std::vector<Read> reads = allReads(wl);
    RealignJobResult job =
        makeSession("iracc", cfg).run(wl.reference, reads);
    ASSERT_EQ(job.contigs.size(), 2u);

    // The stage seconds a caller reads and the stage histograms
    // the registry exports are one measurement each.
    uint64_t plan = 0, prepare = 0, apply = 0;
    for (const ContigJobResult &c : job.contigs) {
        plan += obs::nanos(c.run.stageTimes.planSeconds);
        prepare += obs::nanos(c.run.stageTimes.prepareSeconds);
        apply += obs::nanos(c.run.stageTimes.applySeconds);
    }
    EXPECT_EQ(registry.histogramSnapshot("realign.stage.plan_ns").total(),
              plan);
    EXPECT_EQ(
        registry.histogramSnapshot("realign.stage.prepare_ns").total(),
        prepare);
    EXPECT_EQ(registry.histogramSnapshot("realign.stage.apply_ns").total(),
              apply);

    // Both exports render every histogram with the same count and
    // sum.
    std::ostringstream json_os, prom_os;
    registry.writeJson(json_os);
    registry.writePrometheus(prom_os);
    const std::string prom = prom_os.str();
    EXPECT_EQ(prom.find(" histogram\n"), std::string::npos);
    std::string err;
    JsonValue root = JsonValue::parse(json_os.str(), &err);
    ASSERT_EQ(root.kind(), JsonValue::Kind::Object) << err;
    const auto &hists = root.at("histograms").asObject();
    ASSERT_GT(hists.size(), 4u);
    for (const auto &[name, h] : hists) {
        std::string p = name;
        std::replace(p.begin(), p.end(), '.', '_');
        EXPECT_EQ(promSample(prom, p + "_count"),
                  h.at("count").asNumber())
            << name;
        EXPECT_EQ(promSample(prom, p + "_sum"), h.at("sum").asNumber())
            << name;
    }
}

TEST(RealignJob, EmptyAndSingleContigEdgeCases)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(multiContigWorkload());

    // No reads: an empty job result, no crash.
    std::vector<Read> empty;
    RealignJobResult none =
        makeSession("native").run(wl.reference, empty);
    EXPECT_TRUE(none.contigs.empty());
    EXPECT_EQ(none.stats.targets, 0u);

    // runContig equals a one-contig run().
    const ChromosomeWorkload &chr = wl.chromosome(22);
    std::vector<Read> a = chr.reads;
    std::vector<Read> b = chr.reads;
    RealignSession session = makeSession("native");
    RealignJobResult ja =
        session.runContig(wl.reference, chr.contig, a);
    RealignJobResult jb = session.run(
        wl.reference, std::vector<int32_t>{chr.contig}, b);
    EXPECT_EQ(fingerprint(a), fingerprint(b));
    expectStatsEqual(ja.stats, jb.stats, "runContig vs run");
    expectWhdEqual(ja.stats.whd, jb.stats.whd, "runContig vs run");
}

TEST(RealignJob, RepeatedRunsReuseTheHostExecutorThreads)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(multiContigWorkload());
    const std::vector<Read> reads = allReads(wl);

    // onProgress runs on the thread that ran the contig.  Every run
    // draws on the one process-wide executor, so 20 runs of a
    // 3-contig job at 4 threads see the caller plus at most its
    // hardware_concurrency() - 1 workers -- not new threads per run.
    std::mutex mu;
    std::set<long> tids;
    RealignJobConfig cfg;
    cfg.threads = 4;
    cfg.onProgress = [&](const RealignJobProgress &) {
        std::lock_guard<std::mutex> lock(mu);
        tids.insert(static_cast<long>(syscall(SYS_gettid)));
    };
    RealignSession session = makeSession("native", cfg);
    for (int run = 0; run < 20; ++run) {
        std::vector<Read> work = reads;
        RealignJobResult job = session.run(wl.reference, work);
        ASSERT_EQ(job.contigs.size(), 3u);
    }
    EXPECT_GE(tids.size(), 1u);
    EXPECT_LE(tids.size(),
              static_cast<size_t>(std::thread::hardware_concurrency()) +
                  1);
}

} // namespace
} // namespace iracc
