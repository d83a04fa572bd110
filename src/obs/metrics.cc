#include "obs/metrics.hh"

#include <ostream>

#include "util/json.hh"
#include "util/logging.hh"

namespace iracc {
namespace obs {

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mtx);
    panic_if(gauges.count(name) || hists.count(name),
             "metric '%s' already registered with another kind",
             name.c_str());
    auto &slot = counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mtx);
    panic_if(counters.count(name) || hists.count(name),
             "metric '%s' already registered with another kind",
             name.c_str());
    auto &slot = gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

LatencyMetric &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mtx);
    panic_if(counters.count(name) || gauges.count(name),
             "metric '%s' already registered with another kind",
             name.c_str());
    auto &slot = hists[name];
    if (!slot)
        slot = std::make_unique<LatencyMetric>();
    return *slot;
}

uint64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second->value();
}

int64_t
MetricsRegistry::gaugeValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = gauges.find(name);
    return it == gauges.end() ? 0 : it->second->value();
}

LatencyHistogram
MetricsRegistry::histogramSnapshot(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = hists.find(name);
    return it == hists.end() ? LatencyHistogram()
                             : it->second->snapshotHist();
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mtx);
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, c] : counters) {
        os << (first ? "" : ",") << jsonQuote(name) << ":"
           << c->value();
        first = false;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, g] : gauges) {
        os << (first ? "" : ",") << jsonQuote(name)
           << ":{\"value\":" << g->value()
           << ",\"highWater\":" << g->highWater() << "}";
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, l] : hists) {
        LatencyHistogram h = l->snapshotHist();
        os << (first ? "" : ",") << jsonQuote(name)
           << ":{\"count\":" << h.count()
           << ",\"sum\":" << h.total() << ",\"min\":" << h.min()
           << ",\"max\":" << h.max() << ",\"p50\":" << h.p50()
           << ",\"p90\":" << h.p90() << ",\"p99\":" << h.p99()
           << ",\"p999\":" << h.p999() << "}";
        first = false;
    }
    os << "}}";
}

namespace {

/** Prometheus metric names allow [a-zA-Z0-9_:] only. */
std::string
promName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    if (!out.empty() && out[0] >= '0' && out[0] <= '9')
        out.insert(out.begin(), '_');
    return out.empty() ? std::string("_") : out;
}

} // namespace

void
MetricsRegistry::writePrometheus(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mtx);
    for (const auto &[name, c] : counters) {
        std::string p = promName(name);
        os << "# TYPE " << p << " counter\n"
           << p << " " << c->value() << "\n";
    }
    for (const auto &[name, g] : gauges) {
        std::string p = promName(name);
        os << "# TYPE " << p << " gauge\n"
           << p << " " << g->value() << "\n"
           << "# TYPE " << p << "_high_water gauge\n"
           << p << "_high_water " << g->highWater() << "\n";
    }
    for (const auto &[name, l] : hists) {
        LatencyHistogram h = l->snapshotHist();
        std::string p = promName(name);
        os << "# TYPE " << p << " summary\n";
        if (h.count() == 0) {
            // Prometheus convention: a summary with no
            // observations exposes NaN quantiles, not 0 (a
            // scraper cannot tell "empty" from "really 0" --
            // dashboards would plot phantom zero latencies).
            for (const char *q : {"0.5", "0.9", "0.99", "0.999"})
                os << p << "{quantile=\"" << q << "\"} NaN\n";
        } else {
            os << p << "{quantile=\"0.5\"} " << h.p50() << "\n"
               << p << "{quantile=\"0.9\"} " << h.p90() << "\n"
               << p << "{quantile=\"0.99\"} " << h.p99() << "\n"
               << p << "{quantile=\"0.999\"} " << h.p999()
               << "\n";
        }
        os << p << "_sum " << h.total() << "\n"
           << p << "_count " << h.count() << "\n";
    }
}

} // namespace obs
} // namespace iracc
