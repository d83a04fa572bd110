/**
 * @file
 * Host-side target scheduling over the sea of IR units -- paper
 * Figure 7 and Section IV -- and the one dispatch engine every
 * accelerated backend runs on.
 *
 * Two policies are modeled:
 *
 *  - SynchronousParallel: transfer a batch of numUnits targets,
 *    launch all units, and wait for every unit to finish before
 *    flushing and starting the next batch.  Pruning-induced
 *    runtime variance leaves most units idle waiting for the
 *    slowest target.
 *
 *  - AsynchronousParallel: each unit's completion response (polled
 *    from the MMIO "response valid" register) immediately triggers
 *    the DMA + launch of the next pending target on that unit,
 *    keeping all units busy (the paper's 6.2x average gain).
 *
 * Hardening is an optional HardenPolicy over the same dispatcher
 * (docs/ROBUSTNESS.md): hooks verify a target's input images
 * before ir_start and its output buffers at the response, sweep
 * for lost targets when a card's event queue drains with work
 * still in flight, retry on a different unit, quarantine wedged
 * units, fall back to software (or fail) when attempts run out,
 * and migrate a wedged card's remaining targets to the next card.
 * Without faults the hooks cost zero modeled cycles, so a hardened
 * run's timing equals the plain run's cycle for cycle.
 */

#ifndef IRACC_HOST_SCHEDULER_HH
#define IRACC_HOST_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "accel/card_fleet.hh"
#include "accel/fpga_system.hh"
#include "fault/fault.hh"
#include "obs/latency_histogram.hh"
#include "realign/marshal.hh"

namespace iracc {

/** Scheduling policy for dispatching targets to units. */
enum class SchedulePolicy {
    SynchronousParallel,
    AsynchronousParallel,
};

/** @return display name of a policy. */
const char *schedulePolicyName(SchedulePolicy policy);

/** Outcome of scheduling a target list onto a card fleet. */
struct FleetScheduleResult
{
    /**
     * Per-target datapath results, indexed like the input list
     * (bit-identical for any card count or placement).  A target
     * a hardened run gave up on carries an all-zero output of the
     * right size, i.e. a no-op decision.
     */
    std::vector<IrComputeResult> results;

    /**
     * Fleet makespan: the maximum final cycle over the cards.
     * Cards run in parallel on private virtual timelines, so the
     * fleet finishes when its slowest card does.
     */
    Cycle makespan = 0;

    /**
     * Aggregated system statistics: byte/target/command counters
     * summed over cards, totalCycles = makespan, unit utilization
     * weighted by each card's cycles, and `whd` merged from each
     * target's resolving result in target order (a retried
     * attempt's work is not counted twice).  With one card this
     * is that card's snapshot.
     */
    FpgaRunStats fpga;

    /**
     * Counters merged over cards; card k's trace events carry
     * pid k (perf.pidSpan = card count), so merged job traces
     * render one Chrome process per card.
     */
    PerfReport perf;

    /** Per-card counter snapshots, ascending card id. */
    std::vector<PerfReport> cardPerf;

    /** Per-unit execution records, concatenated per card. */
    std::vector<UnitTimelineEntry> timeline;

    /** Per-card dispatch accounting (shards, steals, migrations,
     *  busy cycles). */
    FleetExecStats fleet;

    /**
     * Always-on per-target latency over every card, first
     * dispatch to resolution (retries and watchdog waits
     * included), in the cycle domain and in modeled nanoseconds;
     * exact merge of the cards.
     */
    obs::LatencyHistogram targetLatencyCycles;
    obs::LatencyHistogram targetLatencyNanos;

    /** Hardened runs: recovery counters (all zero otherwise). */
    RecoveryStats recovery;

    /** Ok / Degraded / Failed (see RunStatus). */
    RunStatus status = RunStatus::Ok;
};

/**
 * Schedule every marshalled target onto @p lease's cards in shards
 * of FleetConfig::shardTargets.  Placement: round-robin homes when
 * stealing is off; with stealing on, each shard goes to the card
 * with the least estimated load (the precomputed datapath cycles
 * of everything placed there so far; deterministic -- ties break
 * to the lowest card id) and displaced shards are counted as
 * steals.  Either way each card then runs its placement as one
 * continuous completion-driven dispatch, so DMA bursts and unit
 * refills batch across shard boundaries.  A one-card fleet runs
 * the whole list in order.  The lease's `stats` are updated with
 * this run's accounting.
 *
 * Datapath results are always precomputed on worker threads (LPT
 * placement needs their cycle costs) and replayed by the units.
 * With @p harden set, each card whose FleetConfig::cardPlans entry
 * is non-empty gets a fresh FaultInjector for this call and its
 * units compute from the bytes in device memory instead, so an
 * injected corruption really reaches the datapath.
 */
FleetScheduleResult scheduleFleetTargets(
    FleetLease &lease, const std::vector<MarshalledTarget> &targets,
    SchedulePolicy policy, const HardenPolicy *harden = nullptr);

/** Convenience: lease a transient fleet of @p fleet's shape (a
 *  one-card FleetConfig::singleCard is the single-system case). */
FleetScheduleResult scheduleFleetTargets(
    const FleetConfig &fleet,
    const std::vector<MarshalledTarget> &targets,
    SchedulePolicy policy, const HardenPolicy *harden = nullptr);

} // namespace iracc

#endif // IRACC_HOST_SCHEDULER_HH
