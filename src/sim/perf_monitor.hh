/**
 * @file
 * Performance-counter and trace layer for the accelerator
 * simulator.
 *
 * A PerfMonitor collects, during one event-driven simulation,
 * the quantities the paper's architectural argument rests on:
 *
 *  - per-IR-unit cycle accounting (load / compute / write phases,
 *    busy vs idle), with the conservation invariant
 *    load + compute + write == busy and busy + idle == total;
 *  - arbiter behaviour: intra-unit 5:1 stream grants/conflicts and,
 *    per shared channel (32:1 DDR arbiter, PCIe DMA, AXILite hub),
 *    grants, conflicts, queue-wait, occupancy, bytes and latency;
 *  - per-target distributions: compute cycles, command queue wait,
 *    and the inter-target idle gap of each unit (the straggler
 *    wait the async scheduler removes); ready-to-collected latency
 *    is the scheduler's always-on targetLatencyCycles;
 *  - block-RAM buffer and device-memory high-water marks.
 *
 * When tracing is enabled the monitor additionally records one
 * timeline span per unit phase / channel transfer / scheduled
 * target, exportable as Chrome trace-event JSON (chrome://tracing,
 * Perfetto) via writeChromeTrace().
 *
 * Counters are *off by default*: components hold a null
 * PerfMonitor pointer and every instrumentation site is guarded by
 * a single pointer test, so the disabled hot path is unchanged.
 * The full counter/trace schema is documented in
 * docs/OBSERVABILITY.md.
 */

#ifndef IRACC_SIM_PERF_MONITOR_HH
#define IRACC_SIM_PERF_MONITOR_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/latency_histogram.hh"
#include "sim/event_queue.hh"

namespace iracc {

/** Enablement knobs for a PerfMonitor. */
struct PerfOptions
{
    /** Also record timeline trace events (costs memory). */
    bool trace = false;
};

/** Trace track (Chrome "tid") assigned to the host scheduler. */
constexpr uint32_t kTraceTidScheduler = 60;

/** First trace track assigned to shared channels. */
constexpr uint32_t kTraceTidChannelBase = 64;

/** One timeline span (Chrome trace-event "X" record). */
struct TraceEvent
{
    std::string name;    ///< e.g. "t12 compute" or "832B"
    std::string cat;     ///< "unit", "channel", or "sched"
    uint32_t pid = 0;    ///< process id (contig index when merged)
    uint32_t tid = 0;    ///< track id (unit id, channel, scheduler)
    Cycle start = 0;     ///< span start cycle
    Cycle duration = 0;  ///< span length in cycles
    uint64_t targetId = 0; ///< owning target (0 when not per-target)
};

/** Cycle accounting for one IR unit. */
struct UnitPerfCounters
{
    uint32_t unit = 0;
    uint64_t targets = 0;

    Cycle loadCycles = 0;    ///< Idle->Loading intervals (DDR reads)
    Cycle computeCycles = 0; ///< datapath (HDC + selector) intervals
    Cycle writeCycles = 0;   ///< output drain + response intervals
    Cycle busyCycles = 0;    ///< dispatch->finish (= load+compute+write)
    Cycle idleCycles = 0;    ///< total - busy, set by finalize()

    /** Intra-unit 5:1 memory-arbiter stream grants. */
    uint64_t arbGrants = 0;
    /** Grants that had to queue behind a sibling stream. */
    uint64_t arbConflicts = 0;
};

/** Counters for one shared channel (DDR / DMA / AXILite). */
struct ChannelPerfCounters
{
    std::string name;        ///< "ddr0", "pcie-dma", "axilite-hub"
    uint64_t transfers = 0;  ///< arbiter grants
    uint64_t conflicts = 0;  ///< grants that found the channel busy
    uint64_t bytes = 0;      ///< payload bytes moved
    Cycle busyCycles = 0;    ///< occupancy (service time)
    Cycle waitCycles = 0;    ///< total queue wait (grant - request)
    Cycle latencyCycles = 0; ///< total request-to-completion time
};

/** High-water mark of one block-RAM buffer class. */
struct BufferPerfCounters
{
    std::string name;       ///< e.g. "consensus-bases"
    uint64_t capacity = 0;  ///< architected capacity in bytes
    uint64_t highWater = 0; ///< max bytes observed in one target
};

/**
 * Snapshot of everything a PerfMonitor collected.  Copyable;
 * mergeable across simulations (e.g. one report per contig).
 */
struct PerfReport
{
    /** True when produced by an enabled monitor. */
    bool enabled = false;

    /** Final simulation cycle (denominator of utilizations). */
    Cycle totalCycles = 0;

    /** Fabric clock of the producing simulation in MHz (0 when
     *  unknown; lets consumers convert cycles to time). */
    double clockMhz = 0.0;

    std::vector<UnitPerfCounters> units;
    std::vector<ChannelPerfCounters> channels;
    std::vector<BufferPerfCounters> buffers;

    /** Device-DDR bump-allocator high-water mark in bytes. */
    uint64_t deviceMemHighWater = 0;

    /** Per-target compute cycles (straggler spread). */
    obs::LatencyHistogram targetCompute;

    /** Per-target AXILite command-delivery wait (cycles). */
    obs::LatencyHistogram cmdQueueWait;

    /** Per-unit idle gap between consecutive targets (cycles):
     *  the straggler wait synchronous batching induces. */
    obs::LatencyHistogram unitIdleGap;

    /** Human-readable names for trace tracks (tid -> name). */
    std::vector<std::pair<uint32_t, std::string>> trackNames;

    /** Timeline spans (empty unless tracing was enabled). */
    std::vector<TraceEvent> trace;

    /**
     * Number of Chrome-trace pid slots this report's events occupy:
     * 1 for a single-simulation report, the card count after a
     * fleet merge (events then carry pid = card id).  Callers that
     * re-merge such a report pass it as merge()'s pid_stride so the
     * per-card processes stay distinct.
     */
    uint32_t pidSpan = 1;

    /** Mean across units of busy/total. */
    double meanUnitUtilization() const;

    /** Fraction of total cycles a named channel was occupied. */
    double channelOccupancy(const std::string &name) const;

    /** Sum of bytes over channels whose name starts with prefix. */
    uint64_t channelBytes(const std::string &prefix) const;

    /**
     * Accumulate @p other into this report: counters add (units
     * matched by id, channels/buffers by name), high-water marks
     * take the max, total cycles add (independent simulations run
     * back to back), and @p other's trace events are appended with
     * their pid set to @p trace_pid so merged traces render as one
     * process per source simulation.
     *
     * When @p other already spans several pids (a fleet report,
     * other.pidSpan > 1), pass that span as @p pid_stride: appended
     * events then land at trace_pid * pid_stride + their own pid,
     * keeping one process per (source, card).  pid_stride 0 keeps
     * the legacy overwrite (every event at trace_pid).
     */
    void merge(const PerfReport &other, uint32_t trace_pid = 0,
               uint32_t pid_stride = 0);
};

/**
 * The collector threaded through FpgaSystem, its channels and
 * units, and the host scheduler.  All instrumentation methods are
 * cheap (counter additions; one vector push when tracing).
 */
class PerfMonitor
{
  public:
    explicit PerfMonitor(PerfOptions options = {});

    /** @return true when timeline spans are being recorded. */
    bool tracing() const { return opts.trace; }

    // --- registration (done once at system construction) ---

    /** Register unit @p unit_id; its trace track is tid=unit_id. */
    void registerUnit(uint32_t unit_id);

    /** Register a shared channel; @return its channel index. */
    size_t registerChannel(const std::string &name);

    /** Register a buffer class; @return its buffer index. */
    size_t registerBuffer(const std::string &name,
                          uint64_t capacity);

    /** Name an extra trace track (e.g. the scheduler). */
    void registerTrack(uint32_t tid, const std::string &name);

    // --- unit-side instrumentation ---

    /**
     * Record one completed target on @p unit with its FSM phase
     * boundaries.  Updates phase/busy counters, the per-target
     * compute and inter-target idle-gap distributions, and (when
     * tracing) emits one span per phase.
     */
    void unitTarget(uint32_t unit, uint64_t target_id,
                    Cycle dispatched, Cycle loaded, Cycle computed,
                    Cycle finished);

    /** Record intra-unit 5:1 arbiter activity. */
    void unitArb(uint32_t unit, uint64_t grants,
                 uint64_t conflicts);

    // --- channel-side instrumentation ---

    /**
     * Record one transfer through channel @p chan: requested at
     * @p requested, granted (service start) at @p granted,
     * occupying the channel for @p occupancy cycles, completing at
     * @p completed.
     */
    void channelTransfer(size_t chan, uint64_t bytes,
                         Cycle requested, Cycle granted,
                         Cycle occupancy, Cycle completed);

    // --- host/scheduler-side instrumentation ---

    /** Sample one target's command-delivery queue wait. */
    void sampleCmdQueueWait(Cycle cycles);

    /** Record an arbitrary timeline span (no counter effect). */
    void traceSpan(std::string name, std::string cat, uint32_t tid,
                   Cycle start, Cycle end, uint64_t target_id = 0);

    // --- watermarks ---

    /** Record @p bytes resident in buffer class @p buffer. */
    void bufferWatermark(size_t buffer, uint64_t bytes);

    /** Record the device-memory allocator position. */
    void deviceMemWatermark(uint64_t bytes);

    /**
     * Close the books at @p total_cycles: fills totalCycles and
     * per-unit idle counters.  Idempotent; call before report().
     */
    void finalize(Cycle total_cycles);

    /** @return the collected report (finalize() first). */
    const PerfReport &report() const { return rep; }

  private:
    UnitPerfCounters &unitRef(uint32_t unit);

    PerfOptions opts;
    PerfReport rep;
    /** Per-unit finish cycle of the previous target (idle gaps). */
    std::vector<std::pair<bool, Cycle>> lastFinish;
};

/**
 * Write @p rep's timeline as Chrome trace-event JSON ("JSON Object
 * Format": a top-level object with a traceEvents array).  Cycle
 * timestamps are converted to microseconds at @p clock_mhz, so the
 * viewer's time axis reads in simulated FPGA time.  Includes
 * process/thread-name metadata records for every known track.
 */
void writeChromeTrace(std::ostream &os, const PerfReport &rep,
                      double clock_mhz);

/**
 * Append @p rep's metadata and span records to an already-open
 * traceEvents array (no enclosing wrapper object): the building
 * block writeChromeTrace() and the host/sim unified exporter
 * (obs::writeUnifiedChromeTrace) share.  @p first carries the
 * comma state across appenders and is updated.
 */
void appendChromeTraceEvents(std::ostream &os, const PerfReport &rep,
                             double clock_mhz, bool &first);

/**
 * Render the counter summary as aligned text tables (per-unit
 * cycle accounting, channel table, buffer watermarks, and the
 * per-target distributions).
 */
std::string renderPerfSummary(const PerfReport &rep);

/** Write every counter as one flat JSON object (machine-readable
 *  companion of renderPerfSummary). */
void writePerfJson(std::ostream &os, const PerfReport &rep);

} // namespace iracc

#endif // IRACC_SIM_PERF_MONITOR_HH
