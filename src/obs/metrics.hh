/**
 * @file
 * Host-side metrics: a thread-safe registry of named counters,
 * gauges, and histograms.
 *
 * This is the wall-clock-domain counterpart of the simulator's
 * PerfMonitor (src/sim/perf_monitor.hh): the FPGA model counts
 * cycles, this registry counts what the *host software* does --
 * reads aligned, pipeline stage nanoseconds, thread-pool queue
 * depth, task wait distributions.  Like the PerfMonitor, it is
 * opt-in: components hold a null pointer and every instrumentation
 * site is behind a single pointer test, so the uninstrumented hot
 * path is unchanged.
 *
 * Every distribution is one kind: a mutex-guarded log-linear
 * LatencyHistogram (obs/latency_histogram.hh) of raw uint64 values
 * in the unit its name declares (`_ns`, `_cycles`, or a count).
 * Metric handles returned by the registry are stable for the
 * registry's lifetime and individually thread-safe (counters and
 * gauges are relaxed atomics).  Registration takes the registry
 * mutex; instrument hot loops by hoisting the handle out.
 *
 * Export formats: writeJson() (machine-readable, round-trips
 * through src/util/json) and writePrometheus() (text exposition
 * format, for scraping; histograms are summaries).  The metric
 * name catalogue lives in docs/OBSERVABILITY.md.
 */

#ifndef IRACC_OBS_METRICS_HH
#define IRACC_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/latency_histogram.hh"

namespace iracc {
namespace obs {

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    add(uint64_t d = 1)
    {
        v.fetch_add(d, std::memory_order_relaxed);
    }

    uint64_t value() const { return v.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v{0};
};

/** Instantaneous level (queue depth, in-flight contigs) with a
 *  high-water mark. */
class Gauge
{
  public:
    void
    set(int64_t x)
    {
        v.store(x, std::memory_order_relaxed);
        raiseHighWater(x);
    }

    void
    add(int64_t d)
    {
        int64_t now =
            v.fetch_add(d, std::memory_order_relaxed) + d;
        raiseHighWater(now);
    }

    int64_t value() const { return v.load(std::memory_order_relaxed); }
    int64_t
    highWater() const
    {
        return hw.load(std::memory_order_relaxed);
    }

  private:
    void
    raiseHighWater(int64_t x)
    {
        int64_t cur = hw.load(std::memory_order_relaxed);
        while (x > cur &&
               !hw.compare_exchange_weak(cur, x,
                                         std::memory_order_relaxed)) {
        }
    }

    std::atomic<int64_t> v{0};
    std::atomic<int64_t> hw{0};
};

/**
 * A registry histogram: a mutex-guarded LatencyHistogram, so
 * quantiles carry bounded relative error at any magnitude and
 * whole per-run histograms merge in exactly.
 */
class LatencyMetric
{
  public:
    void
    record(uint64_t v)
    {
        std::lock_guard<std::mutex> lock(m);
        h.record(v);
    }

    /** Exact merge of a per-run/per-contig histogram. */
    void
    merge(const LatencyHistogram &other)
    {
        std::lock_guard<std::mutex> lock(m);
        h.merge(other);
    }

    /** Consistent copy for rendering. */
    LatencyHistogram
    snapshotHist() const
    {
        std::lock_guard<std::mutex> lock(m);
        return h;
    }

  private:
    mutable std::mutex m;
    LatencyHistogram h;
};

/**
 * The thread-safe metric registry.  Lookup-or-create by name;
 * handles stay valid for the registry's lifetime.  A name is bound
 * to one metric kind; requesting it as another kind panics.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);

    /** The histogram named @p name (see LatencyMetric). */
    LatencyMetric &histogram(const std::string &name);

    // -- convenience readers (0 / empty semantics when absent) --
    uint64_t counterValue(const std::string &name) const;
    int64_t gaugeValue(const std::string &name) const;
    /** Consistent copy; empty when the metric is absent. */
    LatencyHistogram histogramSnapshot(const std::string &name) const;

    /** One JSON object: {"counters":{...},"gauges":{...},
     *  "histograms":{...}}.  Names escaped via util/json. */
    void writeJson(std::ostream &os) const;

    /** Prometheus text exposition format; metric names are
     *  sanitized ('.' and other illegal characters -> '_'). */
    void writePrometheus(std::ostream &os) const;

  private:
    mutable std::mutex mtx;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<LatencyMetric>> hists;
};

} // namespace obs
} // namespace iracc

#endif // IRACC_OBS_METRICS_HH
