/**
 * @file
 * Tests for the host-side observability layer (src/obs): exact
 * concurrent metric totals, hostile-name JSON escaping round-trips,
 * multi-thread span tracing, the unified host+sim Chrome trace,
 * thread-pool instrumentation, and the bench-report schema.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/bench_report.hh"
#include "obs/obs.hh"
#include "sim/perf_monitor.hh"
#include "util/json.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace iracc {
namespace {

// ---- MetricsRegistry ---------------------------------------------

TEST(Metrics, CounterGaugeHistogramBasics)
{
    obs::MetricsRegistry reg;
    reg.counter("c").add();
    reg.counter("c").add(41);
    EXPECT_EQ(reg.counterValue("c"), 42u);
    EXPECT_EQ(reg.counterValue("missing"), 0u);

    obs::Gauge &g = reg.gauge("g");
    g.set(5);
    g.add(3);
    g.add(-6);
    EXPECT_EQ(reg.gaugeValue("g"), 2);
    EXPECT_EQ(g.highWater(), 8);

    obs::LatencyMetric &h = reg.histogram("h_ns");
    for (uint64_t v : {5, 10, 10, 100})
        h.record(v);
    const obs::LatencyHistogram snap = reg.histogramSnapshot("h_ns");
    EXPECT_EQ(snap.count(), 4u);
    EXPECT_EQ(snap.total(), 125u);
    EXPECT_EQ(snap.min(), 5u);
    EXPECT_EQ(snap.max(), 100u);
    EXPECT_EQ(snap.p50(), 10u);
    EXPECT_EQ(reg.histogramSnapshot("missing").count(), 0u);
}

TEST(Metrics, HandlesAreStableAcrossLookups)
{
    obs::MetricsRegistry reg;
    obs::Counter &a = reg.counter("same");
    obs::Counter &b = reg.counter("same");
    EXPECT_EQ(&a, &b);
    obs::LatencyMetric &h1 = reg.histogram("h");
    obs::LatencyMetric &h2 = reg.histogram("h");
    EXPECT_EQ(&h1, &h2);
}

TEST(Metrics, ConcurrentUpdatesAreExact)
{
    // N threads hammer the same counter, gauge, and histogram; the
    // totals must be exact, not approximate -- counter and gauge
    // updates are single atomic RMWs, histogram records take the
    // histogram's mutex.
    const int threads = 8;
    const int iters = 10000;
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("hits");
    obs::Gauge &g = reg.gauge("depth");
    obs::LatencyMetric &h = reg.histogram("lat");

    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (int i = 0; i < iters; ++i) {
                c.add();
                g.add(1);
                g.add(-1);
                // Value depends only on (t, i): deterministic sum.
                h.record(static_cast<uint64_t>((t + i) % 3));
            }
        });
    }
    for (auto &th : pool)
        th.join();

    const uint64_t total =
        static_cast<uint64_t>(threads) * iters;
    EXPECT_EQ(c.value(), total);
    EXPECT_EQ(g.value(), 0);
    const obs::LatencyHistogram snap = h.snapshotHist();
    EXPECT_EQ(snap.count(), total);

    uint64_t expect_sum = 0;
    for (int t = 0; t < threads; ++t) {
        for (int i = 0; i < iters; ++i)
            expect_sum += static_cast<uint64_t>((t + i) % 3);
    }
    EXPECT_EQ(snap.total(), expect_sum);
    EXPECT_EQ(snap.min(), 0u);
    EXPECT_EQ(snap.max(), 2u);
}

TEST(Metrics, JsonExportRoundTripsHostileNames)
{
    // Metric names with quotes, backslashes, newlines, and control
    // characters must survive writeJson -> JsonValue::parse (the
    // escaping regression this repository has hit before).
    const std::string hostile =
        "bad\"name\\with\nnewline\tand\x01ctrl";
    obs::MetricsRegistry reg;
    reg.counter(hostile).add(7);
    reg.gauge("g\"2").set(-3);
    reg.histogram("h\\3").record(250);

    std::ostringstream os;
    reg.writeJson(os);
    std::string err;
    JsonValue root = JsonValue::parse(os.str(), &err);
    ASSERT_EQ(root.kind(), JsonValue::Kind::Object) << err;

    ASSERT_TRUE(root.at("counters").has(hostile));
    EXPECT_DOUBLE_EQ(root.at("counters").at(hostile).asNumber(),
                     7.0);
    ASSERT_TRUE(root.at("gauges").has("g\"2"));
    EXPECT_DOUBLE_EQ(
        root.at("gauges").at("g\"2").at("value").asNumber(), -3.0);
    ASSERT_TRUE(root.at("histograms").has("h\\3"));
    const JsonValue &h = root.at("histograms").at("h\\3");
    EXPECT_DOUBLE_EQ(h.at("count").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(h.at("sum").asNumber(), 250.0);
    EXPECT_DOUBLE_EQ(h.at("p50").asNumber(), 250.0);
}

TEST(Metrics, PrometheusExportSanitizesNames)
{
    obs::MetricsRegistry reg;
    reg.counter("realign.pool.tasks").add(3);
    reg.histogram("stage.plan_ns").record(500);
    std::ostringstream os;
    reg.writePrometheus(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("realign_pool_tasks 3"), std::string::npos);
    // Every histogram is exposed as a summary.
    EXPECT_NE(text.find("# TYPE stage_plan_ns summary"),
              std::string::npos);
    EXPECT_NE(text.find("stage_plan_ns_sum 500"), std::string::npos);
    EXPECT_NE(text.find("stage_plan_ns_count 1"), std::string::npos);
    EXPECT_EQ(text.find(" histogram\n"), std::string::npos);
    // No unsanitized dots in metric names.
    EXPECT_EQ(text.find("realign.pool"), std::string::npos);
}

TEST(Metrics, PrometheusEmptySummaryExposesNaNQuantiles)
{
    obs::MetricsRegistry reg;
    reg.histogram("idle.usecs"); // registered, never recorded
    auto &busy = reg.histogram("busy.usecs");
    busy.record(100);
    busy.record(200);

    std::ostringstream os;
    reg.writePrometheus(os);
    const std::string text = os.str();

    // An observation-free summary must expose NaN quantiles -- a
    // scraper cannot distinguish "no data" from "latency really is
    // 0" otherwise -- while _sum/_count stay numeric.
    for (const char *q : {"0.5", "0.9", "0.99", "0.999"}) {
        std::string want = std::string("idle_usecs{quantile=\"") +
                           q + "\"} NaN";
        EXPECT_NE(text.find(want), std::string::npos)
            << "missing '" << want << "' in:\n" << text;
    }
    EXPECT_NE(text.find("idle_usecs_count 0"), std::string::npos);
    EXPECT_NE(text.find("idle_usecs_sum 0"), std::string::npos);

    // A populated summary still emits numeric quantiles.
    EXPECT_EQ(text.find("busy_usecs{quantile=\"0.5\"} NaN"),
              std::string::npos);
    EXPECT_NE(text.find("busy_usecs_count 2"), std::string::npos);
}


// ---- Span tracing ------------------------------------------------

TEST(Spans, ScopedSpanIsInertWhenNull)
{
    // Without a bundle a span records nothing anywhere, but it is
    // still the stage timer: close() returns the elapsed seconds.
    obs::MetricsRegistry reg;
    obs::SpanTracer tracer;
    obs::ScopedSpan null_span(nullptr, "x", "y", "z");
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 <
           std::chrono::microseconds(200)) {
    }
    const double elapsed = null_span.close();
    EXPECT_GE(elapsed, 200e-6);
    EXPECT_DOUBLE_EQ(null_span.close(), 0.0); // idempotent

    obs::Observability empty;
    obs::ScopedSpan empty_span(&empty, "x", "y", "z");
    EXPECT_GE(empty_span.close(), 0.0);

    EXPECT_TRUE(tracer.spans().empty());
    EXPECT_EQ(reg.histogramSnapshot("z").count(), 0u);
}

TEST(Spans, RecordsTraceAndHistogramFromOneMeasurement)
{
    obs::MetricsRegistry reg;
    obs::SpanTracer tracer;
    obs::Observability ob;
    ob.metrics = &reg;
    ob.tracer = &tracer;

    {
        obs::ScopedSpan span(&ob, "work", "test", "work_ns");
    } // destructor closes

    auto spans = tracer.spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].name, "work");
    EXPECT_EQ(spans[0].cat, "test");
    EXPECT_GE(spans[0].durUs, 0.0);
    const obs::LatencyHistogram work = reg.histogramSnapshot("work_ns");
    EXPECT_EQ(work.count(), 1u);
    // The histogram sample is the same measurement as the span.
    EXPECT_NEAR(static_cast<double>(work.total()) * 1e-3,
                spans[0].durUs, 1.0);
}

TEST(Spans, ThreadsGetDistinctTids)
{
    obs::SpanTracer tracer;
    tracer.nameCurrentThread("main");
    const uint32_t main_tid = tracer.currentThreadTid();

    const int threads = 4;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&tracer] {
            double s = tracer.nowUs();
            tracer.record("tick", "test", s, 1.0);
        });
    }
    for (auto &th : pool)
        th.join();

    auto spans = tracer.spans();
    ASSERT_EQ(spans.size(), static_cast<size_t>(threads));
    std::vector<uint32_t> tids;
    for (const auto &s : spans) {
        EXPECT_NE(s.tid, main_tid);
        tids.push_back(s.tid);
    }
    std::sort(tids.begin(), tids.end());
    EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());

    // Every track is labelled: "main" plus a default name per
    // worker thread.
    auto names = tracer.threadNames();
    EXPECT_EQ(names.size(), static_cast<size_t>(threads) + 1);
}

TEST(Spans, UnifiedTraceRoundTripsWithHostileNames)
{
    obs::SpanTracer tracer;
    tracer.nameCurrentThread("evil \"main\"\n");
    tracer.record("span \"quoted\"\\", "cat\n", 10.0, 5.0);

    // A small simulated report with trace events under pid 3.
    PerfReport sim;
    sim.enabled = true;
    sim.clockMhz = 125.0;
    TraceEvent ev;
    ev.pid = 3;
    ev.tid = 0;
    ev.name = "target 0 \"load\"";
    ev.cat = "unit";
    ev.start = 0;
    ev.duration = 1250; // 10 us at 125 MHz
    sim.trace.push_back(ev);

    std::ostringstream os;
    obs::writeUnifiedChromeTrace(os, &tracer, &sim, 125.0);

    std::string err;
    JsonValue root = JsonValue::parse(os.str(), &err);
    ASSERT_EQ(root.kind(), JsonValue::Kind::Object) << err;
    const JsonValue &events = root.at("traceEvents");
    ASSERT_EQ(events.kind(), JsonValue::Kind::Array);

    bool saw_host_span = false, saw_sim_span = false;
    bool saw_host_process = false;
    for (size_t i = 0; i < events.size(); ++i) {
        const JsonValue &e = events.at(i);
        const double pid = e.at("pid").asNumber();
        const std::string &ph = e.at("ph").asString();
        if (ph == "X" && pid == obs::kTraceHostPid) {
            saw_host_span = true;
            EXPECT_EQ(e.at("name").asString(),
                      "span \"quoted\"\\");
            EXPECT_DOUBLE_EQ(e.at("ts").asNumber(), 10.0);
            EXPECT_DOUBLE_EQ(e.at("dur").asNumber(), 5.0);
        }
        if (ph == "X" && pid == 3.0) {
            saw_sim_span = true;
            // 1250 cycles at 125 MHz = 10 us: both domains are on
            // one microsecond axis.
            EXPECT_DOUBLE_EQ(e.at("dur").asNumber(), 10.0);
        }
        if (ph == "M" && pid == obs::kTraceHostPid &&
            e.at("name").asString() == "process_name") {
            saw_host_process = true;
        }
    }
    EXPECT_TRUE(saw_host_span);
    EXPECT_TRUE(saw_sim_span);
    EXPECT_TRUE(saw_host_process);
}

TEST(Spans, HostOnlyTraceHasNoSimProcesses)
{
    obs::SpanTracer tracer;
    tracer.record("solo", "host", 0.0, 1.0);
    std::ostringstream os;
    obs::writeUnifiedChromeTrace(os, &tracer, nullptr, 0.0);
    std::string err;
    JsonValue root = JsonValue::parse(os.str(), &err);
    ASSERT_EQ(root.kind(), JsonValue::Kind::Object) << err;
    const JsonValue &events = root.at("traceEvents");
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_DOUBLE_EQ(events.at(i).at("pid").asNumber(),
                         obs::kTraceHostPid);
    }
}

// ---- Thread-pool instrumentation ---------------------------------

TEST(PoolInstrumentation, CountsTasksAndWaits)
{
    obs::MetricsRegistry reg;
    ThreadPool pool(3);
    obs::instrumentThreadPool(pool, reg, "pool");

    const int tasks = 50;
    std::atomic<int> ran{0};
    for (int i = 0; i < tasks; ++i)
        pool.submit([&ran] { ran.fetch_add(1); });
    pool.waitIdle();

    EXPECT_EQ(ran.load(), tasks);
    EXPECT_EQ(reg.counterValue("pool.tasks"),
              static_cast<uint64_t>(tasks));
    EXPECT_EQ(reg.histogramSnapshot("pool.task_wait_ns").count(),
              static_cast<uint64_t>(tasks));
    EXPECT_EQ(reg.histogramSnapshot("pool.task_busy_ns").count(),
              static_cast<uint64_t>(tasks));
    // Depth callbacks run outside the queue lock, so the final
    // value can lag by a worker or two -- but the high water is
    // monotone and at least one enqueue saw a non-empty queue.
    EXPECT_GE(reg.gaugeValue("pool.queue_depth"), 0);
    EXPECT_GE(reg.gauge("pool.queue_depth").highWater(), 1);
}

TEST(PoolInstrumentation, UninstrumentedPoolStillWorks)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.parallelFor(100, [&ran](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 100);
}

// ---- Bench report ------------------------------------------------

TEST(BenchReport, SchemaRoundTrips)
{
    obs::MetricsRegistry reg;
    reg.counter("n").add(5);

    obs::BenchReport rep("unit_test_bench", "Figure 0");
    rep.setScale(2000);
    rep.setChromosomes({21, 22});
    rep.setMetrics(&reg);
    rep.addValue("speedup", 81.3);
    rep.addValue("hostile \"key\"", 1.5);

    Table t({"Col \"A\"", "B"});
    t.addRow({"x\\y", "2"});
    rep.addTable("tbl", t);

    std::ostringstream os;
    rep.write(os);
    std::string err;
    JsonValue root = JsonValue::parse(os.str(), &err);
    ASSERT_EQ(root.kind(), JsonValue::Kind::Object) << err;

    // The stable iracc-bench-v1 contract.
    EXPECT_EQ(root.at("schema").asString(), "iracc-bench-v1");
    EXPECT_EQ(root.at("bench").asString(), "unit_test_bench");
    EXPECT_EQ(root.at("paperRef").asString(), "Figure 0");
    EXPECT_DOUBLE_EQ(root.at("scale").asNumber(), 2000.0);
    ASSERT_EQ(root.at("chromosomes").size(), 2u);
    EXPECT_DOUBLE_EQ(root.at("chromosomes").at(0).asNumber(), 21.0);
    ASSERT_TRUE(root.has("git"));
    EXPECT_GE(root.at("wallSeconds").asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(root.at("values").at("speedup").asNumber(),
                     81.3);
    EXPECT_DOUBLE_EQ(
        root.at("values").at("hostile \"key\"").asNumber(), 1.5);

    const JsonValue &tbl = root.at("tables").at(size_t(0));
    EXPECT_EQ(tbl.at("name").asString(), "tbl");
    EXPECT_EQ(tbl.at("columns").at(size_t(0)).asString(),
              "Col \"A\"");
    EXPECT_EQ(tbl.at("rows").at(size_t(0)).at(size_t(0)).asString(),
              "x\\y");

    // Attached registry snapshot embedded under "metrics".
    ASSERT_TRUE(root.has("metrics"));
    EXPECT_DOUBLE_EQ(
        root.at("metrics").at("counters").at("n").asNumber(), 5.0);
}

TEST(BenchReport, JsonPathResolution)
{
    const char *argv1[] = {"bench", "--json", "/tmp/x.json"};
    EXPECT_EQ(obs::BenchReport::jsonPathFromArgs(
                  3, const_cast<char **>(argv1)),
              "/tmp/x.json");

    const char *argv2[] = {"bench"};
    ::setenv("IRACC_BENCH_JSON", "/tmp/env.json", 1);
    EXPECT_EQ(obs::BenchReport::jsonPathFromArgs(
                  1, const_cast<char **>(argv2)),
              "/tmp/env.json");
    // The explicit flag wins over the environment.
    EXPECT_EQ(obs::BenchReport::jsonPathFromArgs(
                  3, const_cast<char **>(argv1)),
              "/tmp/x.json");
    ::unsetenv("IRACC_BENCH_JSON");
    EXPECT_EQ(obs::BenchReport::jsonPathFromArgs(
                  1, const_cast<char **>(argv2)),
              "");
}

TEST(BenchReport, BadJsonPathFailsBeforeTheWork)
{
    // A trailing --json used to be silently ignored.
    const char *argv[] = {"bench", "--json"};
    EXPECT_EXIT(obs::BenchReport::jsonPathFromArgs(
                    2, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(2), "--json expects a path");

    obs::BenchReport report("b", "p");
    EXPECT_EXIT(report.setOutputPath("/nonexistent-dir/x.json"),
                ::testing::ExitedWithCode(1), "cannot write");
    report.setOutputPath(""); // no output: nothing to check
    EXPECT_FALSE(report.writeOutput());
}

// ---- util/json escaping ------------------------------------------

TEST(JsonEscape, EscapesEverythingThatMustBeEscaped)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("q\"b\\"), "q\\\"b\\\\");
    EXPECT_EQ(jsonEscape("a\nb\tc\r"), "a\\nb\\tc\\r");
    EXPECT_EQ(jsonEscape(std::string("\x01", 1)), "\\u0001");
    EXPECT_EQ(jsonQuote("x\"y"), "\"x\\\"y\"");

    // Arbitrary control-laden strings round-trip through the
    // repository's own parser.
    std::string hostile;
    for (int c = 1; c < 0x20; ++c)
        hostile.push_back(static_cast<char>(c));
    hostile += "\"\\ end";
    std::string err;
    JsonValue v =
        JsonValue::parse(jsonQuote(hostile), &err);
    ASSERT_EQ(v.kind(), JsonValue::Kind::String) << err;
    EXPECT_EQ(v.asString(), hostile);
}

} // namespace
} // namespace iracc
