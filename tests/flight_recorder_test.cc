/**
 * @file
 * Tests for the always-on flight recorder: the lock-free rings
 * must survive a multi-thread hammer with wraparound (run under
 * TSan in CI), and the canonical merged log of a realignment job
 * must be byte-identical for any worker thread count given the
 * same (workload, seed, fault plan, cards, stealing) -- the
 * determinism contract in docs/OBSERVABILITY.md.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/realign_job.hh"
#include "core/workload.hh"
#include "obs/flight_recorder.hh"
#include "util/logging.hh"

namespace iracc {
namespace {

using obs::FlightContext;
using obs::FlightRecorder;
using obs::FrCategory;
using obs::FrCode;
using obs::FrEvent;
using obs::FrSeverity;

TEST(FlightRecorder, HammerWithWraparoundKeepsMostRecent)
{
    FlightRecorder &rec = FlightRecorder::instance();
    rec.clear();

    // 8 writers, each emitting 3x the ring capacity so every ring
    // wraps twice, while a reader snapshots concurrently.  The
    // reader's snapshots only need to not crash / not race (the
    // binary runs under TSan in the fault-soak CI job); content is
    // asserted on the quiesced final snapshot.
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 3 * FlightRecorder::kRingSlots;
    std::atomic<int> done{0};

    std::thread reader([&rec, &done] {
        while (done.load(std::memory_order_relaxed) < kThreads)
            (void)rec.snapshot().size();
    });

    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([t, &rec, &done] {
            FlightContext ctx(1000 + t);
            for (uint64_t i = 0; i < kPerThread; ++i)
                rec.emit(FrSeverity::Debug, FrCategory::Sched,
                         FrCode::Dispatch, /*vtime=*/i,
                         /*card=*/t, /*a0=*/i);
            done.fetch_add(1, std::memory_order_relaxed);
            // Stay alive until every writer is done: an exited
            // thread's ring goes to the next new thread.
            while (done.load(std::memory_order_relaxed) < kThreads)
                std::this_thread::yield();
        });
    }
    for (auto &w : writers)
        w.join();
    reader.join();

    // Each thread's ring retains exactly the last kRingSlots of
    // its own events -- the older two thirds were overwritten.
    std::vector<FrEvent> events = rec.snapshot();
    for (int t = 0; t < kThreads; ++t) {
        std::set<uint64_t> seen;
        for (const FrEvent &e : events)
            if (e.contig == 1000 + t) {
                EXPECT_EQ(e.card, t);
                EXPECT_EQ(e.args[0], e.vtime);
                EXPECT_EQ(e.seq, e.args[0]);
                seen.insert(e.args[0]);
            }
        ASSERT_EQ(seen.size(), FlightRecorder::kRingSlots)
            << "thread " << t;
        EXPECT_EQ(*seen.begin(), kPerThread -
                                     FlightRecorder::kRingSlots);
        EXPECT_EQ(*seen.rbegin(), kPerThread - 1);
    }
    rec.clear();
    EXPECT_TRUE(rec.snapshot().empty());
}

TEST(FlightRecorder, ExitedThreadsHandTheirRingsOn)
{
    FlightRecorder &rec = FlightRecorder::instance();
    rec.clear();
    const size_t ringsBefore = rec.ringCount();

    // Sequential short-lived threads: each one's ring goes back to
    // the recorder when it exits, and the next thread reuses it, so
    // memory stays bounded for threads the library does not own.
    constexpr int kThreads = 256;
    for (int t = 0; t < kThreads; ++t) {
        std::thread([t, &rec] {
            FlightContext ctx(2000 + t);
            rec.emit(FrSeverity::Info, FrCategory::Job,
                     FrCode::ContigStart, /*vtime=*/t);
        }).join();
    }

    // A reused ring keeps the events of its earlier owners, as
    // after a wrap: every thread's event is still in the snapshot.
    std::set<int32_t> contigs;
    for (const FrEvent &e : rec.snapshot())
        contigs.insert(e.contig);
    EXPECT_EQ(contigs.size(), static_cast<size_t>(kThreads));
    EXPECT_EQ(*contigs.begin(), 2000);
    EXPECT_EQ(*contigs.rbegin(), 2000 + kThreads - 1);
    EXPECT_LE(rec.ringCount(), ringsBefore + 1);
    rec.clear();
}

TEST(FlightRecorder, SnapshotOrdersCanonicallyNotByArrival)
{
    FlightRecorder &rec = FlightRecorder::instance();
    rec.clear();
    FlightContext ctx(7);
    // Arrival order is descending vtime; the canonical order is
    // (vtime, contig, card, seq), independent of arrival.
    for (uint64_t v : {30, 20, 10})
        rec.emit(FrSeverity::Info, FrCategory::Job,
                 FrCode::Barrier, v);
    std::vector<FrEvent> events = rec.snapshot();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].vtime, 10u);
    EXPECT_EQ(events[1].vtime, 20u);
    EXPECT_EQ(events[2].vtime, 30u);
    EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                               obs::frEventBefore));
    rec.clear();
}

TEST(FlightRecorder, InternedStringsAreStableAndSharedByText)
{
    FlightRecorder &rec = FlightRecorder::instance();
    uint32_t a = rec.intern("unit-hang@1");
    uint32_t b = rec.intern("corrupt-write:bit=3@4");
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
    EXPECT_EQ(rec.intern("unit-hang@1"), a);
    EXPECT_EQ(rec.internedString(a), "unit-hang@1");
    EXPECT_EQ(rec.internedString(0), "");
}

/** Canonical text log of one hardened job at @p threads workers. */
std::string
runJobAndFormatLog(const GenomeWorkload &wl, uint32_t threads,
                   std::vector<Read> *reads_out)
{
    FlightRecorder &rec = FlightRecorder::instance();
    rec.clear();

    // Fixed fleet shape and fault schedule: the determinism
    // contract holds cards/stealing/plan constant and varies only
    // the worker thread count.
    FleetConfig fc;
    fc.card = AccelConfig::paperOptimized();
    fc.cards = 2;
    fc.stealing = true;
    fc.cardPlans = {
        FaultPlan::parse("corrupt-write:bit=2@3;unit-hang:unit=1@2"),
        FaultPlan()};

    RealignJobConfig cfg;
    cfg.threads = threads;
    RealignSession session(
        makeHardenedBackend("fr-determinism",
                            "flight-recorder determinism subject",
                            fc),
        cfg);
    std::vector<Read> reads;
    for (const auto &chr : wl.chromosomes)
        reads.insert(reads.end(), chr.reads.begin(),
                     chr.reads.end());
    session.run(wl.reference, reads);
    *reads_out = std::move(reads);

    std::string log;
    for (const FrEvent &e : rec.snapshot())
        log += rec.formatText(e) + "\n";
    rec.clear();
    return log;
}

TEST(FlightRecorder, MergedLogByteIdenticalAcrossThreadCounts)
{
    setQuiet(true);
    WorkloadParams params;
    params.chromosomes = {20, 21, 22};
    params.scaleDivisor = 10000;
    params.minContigLength = 25000;
    params.coverage = 15.0;
    params.variants.insRate = 4e-4;
    params.variants.delRate = 4e-4;
    GenomeWorkload wl = buildWorkload(params);

    std::vector<Read> reads1;
    std::string log1 = runJobAndFormatLog(wl, 1, &reads1);
    ASSERT_FALSE(log1.empty());
    // The log must carry the run's structure: job frame, every
    // contig, and the injected faults.
    EXPECT_NE(log1.find("job.job_start"), std::string::npos);
    EXPECT_NE(log1.find("job.job_done"), std::string::npos);
    EXPECT_NE(log1.find("fault.injected"), std::string::npos);

    for (uint32_t threads : {2u, 3u, 8u}) {
        std::vector<Read> readsN;
        std::string logN = runJobAndFormatLog(wl, threads, &readsN);
        EXPECT_EQ(log1, logN) << "thread count " << threads;
        // And the realigned output itself stays bit-identical.
        ASSERT_EQ(reads1.size(), readsN.size());
        for (size_t i = 0; i < reads1.size(); ++i) {
            ASSERT_EQ(reads1[i].pos, readsN[i].pos) << i;
            ASSERT_EQ(reads1[i].cigar.toString(),
                      readsN[i].cigar.toString())
                << i;
        }
    }
}

} // namespace
} // namespace iracc
