#include "sim/perf_monitor.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace iracc {

double
PerfReport::meanUnitUtilization() const
{
    if (units.empty() || totalCycles == 0)
        return 0.0;
    double util = 0.0;
    for (const auto &u : units)
        util += static_cast<double>(u.busyCycles) /
                static_cast<double>(totalCycles);
    return util / static_cast<double>(units.size());
}

double
PerfReport::channelOccupancy(const std::string &name) const
{
    if (totalCycles == 0)
        return 0.0;
    for (const auto &ch : channels) {
        if (ch.name == name)
            return static_cast<double>(ch.busyCycles) /
                   static_cast<double>(totalCycles);
    }
    return 0.0;
}

uint64_t
PerfReport::channelBytes(const std::string &prefix) const
{
    uint64_t bytes = 0;
    for (const auto &ch : channels) {
        if (ch.name.rfind(prefix, 0) == 0)
            bytes += ch.bytes;
    }
    return bytes;
}

void
PerfReport::merge(const PerfReport &other, uint32_t trace_pid,
                  uint32_t pid_stride)
{
    enabled = enabled || other.enabled;
    totalCycles += other.totalCycles;
    if (clockMhz == 0.0)
        clockMhz = other.clockMhz;

    for (const auto &ou : other.units) {
        auto it = std::find_if(units.begin(), units.end(),
                               [&](const UnitPerfCounters &u) {
                                   return u.unit == ou.unit;
                               });
        if (it == units.end()) {
            units.push_back(ou);
            continue;
        }
        it->targets += ou.targets;
        it->loadCycles += ou.loadCycles;
        it->computeCycles += ou.computeCycles;
        it->writeCycles += ou.writeCycles;
        it->busyCycles += ou.busyCycles;
        it->idleCycles += ou.idleCycles;
        it->arbGrants += ou.arbGrants;
        it->arbConflicts += ou.arbConflicts;
    }
    for (const auto &oc : other.channels) {
        auto it = std::find_if(channels.begin(), channels.end(),
                               [&](const ChannelPerfCounters &c) {
                                   return c.name == oc.name;
                               });
        if (it == channels.end()) {
            channels.push_back(oc);
            continue;
        }
        it->transfers += oc.transfers;
        it->conflicts += oc.conflicts;
        it->bytes += oc.bytes;
        it->busyCycles += oc.busyCycles;
        it->waitCycles += oc.waitCycles;
        it->latencyCycles += oc.latencyCycles;
    }
    for (const auto &ob : other.buffers) {
        auto it = std::find_if(buffers.begin(), buffers.end(),
                               [&](const BufferPerfCounters &b) {
                                   return b.name == ob.name;
                               });
        if (it == buffers.end())
            buffers.push_back(ob);
        else
            it->highWater = std::max(it->highWater, ob.highWater);
    }
    deviceMemHighWater =
        std::max(deviceMemHighWater, other.deviceMemHighWater);

    targetCompute.merge(other.targetCompute);
    cmdQueueWait.merge(other.cmdQueueWait);
    unitIdleGap.merge(other.unitIdleGap);

    for (const auto &tn : other.trackNames) {
        if (std::find(trackNames.begin(), trackNames.end(), tn) ==
            trackNames.end())
            trackNames.push_back(tn);
    }
    for (TraceEvent ev : other.trace) {
        ev.pid = pid_stride == 0 ? trace_pid
                                 : trace_pid * pid_stride + ev.pid;
        trace.push_back(std::move(ev));
    }
}

PerfMonitor::PerfMonitor(PerfOptions options) : opts(options)
{
    rep.enabled = true;
}

void
PerfMonitor::registerUnit(uint32_t unit_id)
{
    UnitPerfCounters u;
    u.unit = unit_id;
    rep.units.push_back(u);
    lastFinish.emplace_back(false, 0);
    registerTrack(unit_id, "unit " + std::to_string(unit_id));
}

size_t
PerfMonitor::registerChannel(const std::string &name)
{
    ChannelPerfCounters c;
    c.name = name;
    rep.channels.push_back(c);
    size_t idx = rep.channels.size() - 1;
    registerTrack(kTraceTidChannelBase + static_cast<uint32_t>(idx),
                  name);
    return idx;
}

size_t
PerfMonitor::registerBuffer(const std::string &name,
                            uint64_t capacity)
{
    BufferPerfCounters b;
    b.name = name;
    b.capacity = capacity;
    rep.buffers.push_back(b);
    return rep.buffers.size() - 1;
}

void
PerfMonitor::registerTrack(uint32_t tid, const std::string &name)
{
    rep.trackNames.emplace_back(tid, name);
}

UnitPerfCounters &
PerfMonitor::unitRef(uint32_t unit)
{
    for (auto &u : rep.units) {
        if (u.unit == unit)
            return u;
    }
    panic("perf: unit %u was never registered", unit);
}

void
PerfMonitor::unitTarget(uint32_t unit, uint64_t target_id,
                        Cycle dispatched, Cycle loaded,
                        Cycle computed, Cycle finished)
{
    UnitPerfCounters &u = unitRef(unit);
    ++u.targets;
    u.loadCycles += loaded - dispatched;
    u.computeCycles += computed - loaded;
    u.writeCycles += finished - computed;
    u.busyCycles += finished - dispatched;

    rep.targetCompute.record(computed - loaded);

    size_t idx = 0;
    for (; idx < rep.units.size(); ++idx) {
        if (rep.units[idx].unit == unit)
            break;
    }
    if (lastFinish[idx].first)
        rep.unitIdleGap.record(dispatched - lastFinish[idx].second);
    lastFinish[idx] = {true, finished};

    if (opts.trace) {
        std::string t = "t" + std::to_string(target_id);
        traceSpan(t + " load", "unit", unit, dispatched, loaded,
                  target_id);
        traceSpan(t + " compute", "unit", unit, loaded, computed,
                  target_id);
        traceSpan(t + " write", "unit", unit, computed, finished,
                  target_id);
    }
}

void
PerfMonitor::unitArb(uint32_t unit, uint64_t grants,
                     uint64_t conflicts)
{
    UnitPerfCounters &u = unitRef(unit);
    u.arbGrants += grants;
    u.arbConflicts += conflicts;
}

void
PerfMonitor::channelTransfer(size_t chan, uint64_t bytes,
                             Cycle requested, Cycle granted,
                             Cycle occupancy, Cycle completed)
{
    panic_if(chan >= rep.channels.size(),
             "perf: channel %zu was never registered", chan);
    ChannelPerfCounters &c = rep.channels[chan];
    ++c.transfers;
    if (granted > requested)
        ++c.conflicts;
    c.bytes += bytes;
    c.busyCycles += occupancy;
    c.waitCycles += granted - requested;
    c.latencyCycles += completed - requested;

    if (opts.trace) {
        traceSpan(std::to_string(bytes) + "B", "channel",
                  kTraceTidChannelBase + static_cast<uint32_t>(chan),
                  granted, granted + occupancy);
    }
}

void
PerfMonitor::sampleCmdQueueWait(Cycle cycles)
{
    rep.cmdQueueWait.record(cycles);
}

void
PerfMonitor::traceSpan(std::string name, std::string cat,
                       uint32_t tid, Cycle start, Cycle end,
                       uint64_t target_id)
{
    if (!opts.trace)
        return;
    TraceEvent ev;
    ev.name = std::move(name);
    ev.cat = std::move(cat);
    ev.tid = tid;
    ev.start = start;
    ev.duration = end >= start ? end - start : 0;
    ev.targetId = target_id;
    rep.trace.push_back(std::move(ev));
}

void
PerfMonitor::bufferWatermark(size_t buffer, uint64_t bytes)
{
    panic_if(buffer >= rep.buffers.size(),
             "perf: buffer %zu was never registered", buffer);
    rep.buffers[buffer].highWater =
        std::max(rep.buffers[buffer].highWater, bytes);
}

void
PerfMonitor::deviceMemWatermark(uint64_t bytes)
{
    rep.deviceMemHighWater =
        std::max(rep.deviceMemHighWater, bytes);
}

void
PerfMonitor::finalize(Cycle total_cycles)
{
    rep.totalCycles = total_cycles;
    for (auto &u : rep.units) {
        u.idleCycles = total_cycles >= u.busyCycles
                           ? total_cycles - u.busyCycles
                           : 0;
    }
}

namespace {

/** Format a cycle count as microseconds at the given clock. */
std::string
cyclesToUs(Cycle cycles, double clock_mhz)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(cycles) / clock_mhz);
    return buf;
}

std::string
histogramRow(const obs::LatencyHistogram &h)
{
    if (h.count() == 0)
        return "(no samples)";
    std::ostringstream os;
    os << "n=" << h.count() << " mean=" << Table::num(h.mean(), 1)
       << " min=" << h.min() << " p50=" << h.p50()
       << " p99=" << h.p99() << " max=" << h.max();
    return os.str();
}

} // namespace

void
appendChromeTraceEvents(std::ostream &os, const PerfReport &rep,
                        double clock_mhz, bool &first)
{
    fatal_if(clock_mhz <= 0.0, "trace export needs a clock > 0");
    auto comma = [&] {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };

    // Metadata: one process per pid seen, plus track names.
    std::vector<uint32_t> pids;
    for (const auto &ev : rep.trace) {
        if (std::find(pids.begin(), pids.end(), ev.pid) ==
            pids.end())
            pids.push_back(ev.pid);
    }
    if (pids.empty())
        pids.push_back(0);
    std::sort(pids.begin(), pids.end());
    for (uint32_t pid : pids) {
        comma();
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
           << pid << ",\"tid\":0,\"args\":{\"name\":\"fpga sim "
           << pid << "\"}}";
        for (const auto &[tid, name] : rep.trackNames) {
            comma();
            os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
               << pid << ",\"tid\":" << tid
               << ",\"args\":{\"name\":\"" << jsonEscape(name)
               << "\"}}";
        }
    }

    for (const auto &ev : rep.trace) {
        comma();
        os << "{\"name\":\"" << jsonEscape(ev.name)
           << "\",\"cat\":\"" << jsonEscape(ev.cat)
           << "\",\"ph\":\"X\",\"ts\":"
           << cyclesToUs(ev.start, clock_mhz)
           << ",\"dur\":" << cyclesToUs(ev.duration, clock_mhz)
           << ",\"pid\":" << ev.pid << ",\"tid\":" << ev.tid
           << ",\"args\":{\"cycle\":" << ev.start
           << ",\"cycles\":" << ev.duration << ",\"target\":"
           << ev.targetId << "}}";
    }
}

void
writeChromeTrace(std::ostream &os, const PerfReport &rep,
                 double clock_mhz)
{
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    appendChromeTraceEvents(os, rep, clock_mhz, first);
    os << "\n]}\n";
}

std::string
renderPerfSummary(const PerfReport &rep)
{
    std::ostringstream os;
    if (!rep.enabled)
        return "(performance counters disabled)\n";

    os << "Performance counters (" << rep.totalCycles
       << " simulated cycles)\n\n";

    double total = static_cast<double>(
        rep.totalCycles ? rep.totalCycles : 1);
    Table units({"Unit", "Targets", "Load", "Compute", "Write",
                 "Busy%", "Idle%", "Arb5 grant", "Arb5 wait"});
    for (const auto &u : rep.units) {
        units.addRow({std::to_string(u.unit),
                      std::to_string(u.targets),
                      std::to_string(u.loadCycles),
                      std::to_string(u.computeCycles),
                      std::to_string(u.writeCycles),
                      Table::pct(static_cast<double>(u.busyCycles) /
                                 total),
                      Table::pct(static_cast<double>(u.idleCycles) /
                                 total),
                      std::to_string(u.arbGrants),
                      std::to_string(u.arbConflicts)});
    }
    os << units.render();
    os << "Mean unit utilization: "
       << Table::pct(rep.meanUnitUtilization()) << "\n\n";

    Table chans({"Channel", "Transfers", "Conflicts", "Bytes",
                 "Busy%", "Wait cyc", "Latency cyc"});
    for (const auto &c : rep.channels) {
        chans.addRow({c.name, std::to_string(c.transfers),
                      std::to_string(c.conflicts),
                      std::to_string(c.bytes),
                      Table::pct(static_cast<double>(c.busyCycles) /
                                 total),
                      std::to_string(c.waitCycles),
                      std::to_string(c.latencyCycles)});
    }
    os << chans.render() << "\n";

    if (!rep.buffers.empty()) {
        Table bufs({"Buffer", "Capacity(B)", "HighWater(B)",
                    "Fill%"});
        for (const auto &b : rep.buffers) {
            bufs.addRow(
                {b.name, std::to_string(b.capacity),
                 std::to_string(b.highWater),
                 b.capacity
                     ? Table::pct(static_cast<double>(b.highWater) /
                                  static_cast<double>(b.capacity))
                     : "-"});
        }
        os << bufs.render();
        os << "Device-memory high water: " << rep.deviceMemHighWater
           << " B\n\n";
    }

    os << "Per-target compute cycles:  "
       << histogramRow(rep.targetCompute) << "\n";
    os << "Cmd queue wait (cycles):    "
       << histogramRow(rep.cmdQueueWait) << "\n";
    os << "Unit idle gap (cycles):     "
       << histogramRow(rep.unitIdleGap) << "\n";
    return os.str();
}

void
writePerfJson(std::ostream &os, const PerfReport &rep)
{
    auto hist = [&os](const char *key, const obs::LatencyHistogram &h) {
        os << "\"" << key << "\":{\"count\":" << h.count()
           << ",\"sum\":" << h.total();
        if (h.count() > 0) {
            os << ",\"mean\":" << h.mean() << ",\"min\":" << h.min()
               << ",\"max\":" << h.max() << ",\"p50\":" << h.p50()
               << ",\"p99\":" << h.p99();
        }
        os << "}";
    };

    os << "{\"enabled\":" << (rep.enabled ? "true" : "false")
       << ",\"totalCycles\":" << rep.totalCycles
       << ",\"meanUnitUtilization\":" << rep.meanUnitUtilization()
       << ",\"deviceMemHighWater\":" << rep.deviceMemHighWater
       << ",\"units\":[";
    for (size_t i = 0; i < rep.units.size(); ++i) {
        const auto &u = rep.units[i];
        os << (i ? "," : "") << "{\"unit\":" << u.unit
           << ",\"targets\":" << u.targets
           << ",\"loadCycles\":" << u.loadCycles
           << ",\"computeCycles\":" << u.computeCycles
           << ",\"writeCycles\":" << u.writeCycles
           << ",\"busyCycles\":" << u.busyCycles
           << ",\"idleCycles\":" << u.idleCycles
           << ",\"arbGrants\":" << u.arbGrants
           << ",\"arbConflicts\":" << u.arbConflicts << "}";
    }
    os << "],\"channels\":[";
    for (size_t i = 0; i < rep.channels.size(); ++i) {
        const auto &c = rep.channels[i];
        os << (i ? "," : "") << "{\"name\":\""
           << jsonEscape(c.name) << "\",\"transfers\":"
           << c.transfers << ",\"conflicts\":" << c.conflicts
           << ",\"bytes\":" << c.bytes
           << ",\"busyCycles\":" << c.busyCycles
           << ",\"waitCycles\":" << c.waitCycles
           << ",\"latencyCycles\":" << c.latencyCycles << "}";
    }
    os << "],\"buffers\":[";
    for (size_t i = 0; i < rep.buffers.size(); ++i) {
        const auto &b = rep.buffers[i];
        os << (i ? "," : "") << "{\"name\":\""
           << jsonEscape(b.name) << "\",\"capacity\":" << b.capacity
           << ",\"highWater\":" << b.highWater << "}";
    }
    os << "],";
    hist("targetCompute", rep.targetCompute);
    os << ",";
    hist("cmdQueueWait", rep.cmdQueueWait);
    os << ",";
    hist("unitIdleGap", rep.unitIdleGap);
    os << "}\n";
}

} // namespace iracc
