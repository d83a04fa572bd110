#include "host/scheduler.hh"

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>

#include "accel/ir_compute.hh"
#include "obs/flight_recorder.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "util/timer.hh"

namespace iracc {

const char *
schedulePolicyName(SchedulePolicy policy)
{
    switch (policy) {
      case SchedulePolicy::SynchronousParallel:
        return "synchronous-parallel";
      case SchedulePolicy::AsynchronousParallel:
        return "asynchronous-parallel";
    }
    panic("invalid SchedulePolicy");
}

namespace {

/**
 * DMA one marshalled target's three input arrays to the device
 * buffers named by its descriptor.  The arrays move as one burst;
 * payloads land in device memory at the completion events and
 * @p on_done fires when the last array has landed.
 */
void
transferTargetInputs(FpgaSystem &sys, const MarshalledTarget &target,
                     const TargetDescriptor &desc,
                     std::function<void()> on_done)
{
    sys.dmaToDevice(
        desc.bufferAddr[static_cast<size_t>(
            IrBuffer::ConsensusBases)],
        target.consensusData.data(), target.consensusData.size(),
        [] {});
    sys.dmaToDevice(
        desc.bufferAddr[static_cast<size_t>(IrBuffer::ReadBases)],
        target.readData.data(), target.readData.size(), [] {});
    sys.dmaToDevice(
        desc.bufferAddr[static_cast<size_t>(IrBuffer::ReadQuals)],
        target.qualData.data(), target.qualData.size(),
        std::move(on_done));
}

/** Lifecycle of one dispatch slot on a card. */
enum class SlotPhase : uint8_t {
    Pending,    ///< waiting for a unit
    Dispatched, ///< DMA issued, inputs not yet landed
    Launched,   ///< ir_start accepted, waiting for the response
    Resolved,   ///< result recorded, or handed to another card
};

struct Slot
{
    TargetDescriptor desc;
    SlotPhase phase = SlotPhase::Pending;
    uint32_t attempts = 0; ///< hardware attempts so far
    int32_t unit = -1;     ///< unit of the current attempt
    int32_t lastUnit = -1; ///< unit of the previous attempt
    Cycle readyAt = 0;     ///< first dispatch (latency start)
};

struct UnitState
{
    bool busy = false;        ///< an attempt owns the unit
    bool quarantined = false; ///< retired for the rest of the run
    uint32_t strikes = 0;     ///< output-corruption count
};

/** What every card of one scheduling run shares. */
struct RunContext
{
    const std::vector<MarshalledTarget> &targets;
    const std::vector<IrComputeResult> &precomputed;
    SchedulePolicy policy;
    const HardenPolicy *harden; ///< null = plain run, no hooks
    FleetScheduleResult &out;
};

/**
 * One card's completion-driven dispatcher over the subset `order`
 * of the run's targets (dispatch slots map to global target
 * indices).  Without a HardenPolicy it is the paper's scheduler
 * and nothing else; with one, the recovery hooks ride on the same
 * dispatch and response events.
 */
class CardDispatch
{
  public:
    CardDispatch(const RunContext &ctx, FpgaSystem &sys, int32_t card,
                 std::vector<size_t> order, bool on_device,
                 bool can_migrate)
        : ctx(ctx), rec(ctx.out.recovery), sys(sys), card(card),
          order(std::move(order)), onDevice(on_device),
          canMigrate(can_migrate), slots(this->order.size()),
          units(sys.numUnits()), unresolved(this->order.size())
    {
        for (size_t s = 0; s < slots.size(); ++s)
            slots[s].desc = sys.allocateTarget(marshalled(s));
    }

    /**
     * Drive the card until every slot is resolved.  The watchdog
     * sweeps whenever the event queue drains with work left.
     * @return global indices handed off because the card wedged.
     */
    std::vector<size_t>
    run()
    {
        obs::frEmit(obs::FrSeverity::Debug, obs::FrCategory::Sched,
                    obs::FrCode::Dispatch, sys.now(), card,
                    order.size());
        refill(-1, true);
        sys.run();
        while (unresolved > 0) {
            panic_if(ctx.harden == nullptr,
                     "scheduler finished with %zu/%zu targets "
                     "complete",
                     order.size() - unresolved, order.size());
            watchdogSweep();
            if (!anyUsableUnit())
                strandPending();
            panic_if(unresolved > 0 && inFlight == 0,
                     "dispatcher stalled with %zu targets pending",
                     unresolved);
            sys.run();
        }
        return std::move(migrated);
    }

  private:
    const MarshalledTarget &
    marshalled(size_t slot) const
    {
        return ctx.targets[order[slot]];
    }

    bool
    sync() const
    {
        return ctx.policy == SchedulePolicy::SynchronousParallel;
    }

    /** Trace one recovery event on the scheduler track. */
    void
    trace(const char *what, uint64_t id)
    {
        if (PerfMonitor *p = sys.perf()) {
            p->traceSpan(std::string(what) + " " + std::to_string(id),
                         "fault", kTraceTidScheduler, sys.now(),
                         sys.now() + 1, id);
        }
    }

    /**
     * Next slot for unit @p u: a queued retry whose last attempt
     * ran elsewhere, else the next fresh slot, else any retry.  A
     * retry prefers a different unit but never waits for one.
     */
    bool
    take(uint32_t u, size_t *slot)
    {
        for (auto it = retries.begin(); it != retries.end(); ++it) {
            if (slots[*it].lastUnit != static_cast<int32_t>(u)) {
                *slot = *it;
                retries.erase(it);
                return true;
            }
        }
        if (nextFresh < slots.size()) {
            *slot = nextFresh++;
            return true;
        }
        if (retries.empty())
            return false;
        *slot = retries.front();
        retries.pop_front();
        return true;
    }

    /** Claim unit @p u for a slot's next attempt. */
    void
    dispatch(size_t slot, uint32_t u)
    {
        Slot &s = slots[slot];
        s.unit = static_cast<int32_t>(u);
        units[u].busy = true;
        if (s.attempts > 0) {
            ++rec.retries;
            trace("retry target", order[slot]);
            obs::frEmit(obs::FrSeverity::Info,
                        obs::FrCategory::Harden, obs::FrCode::Retry,
                        sys.now(), card, order[slot],
                        s.attempts + 1);
        } else {
            s.readyAt = sys.now();
        }
        ++s.attempts;
        s.phase = SlotPhase::Dispatched;
        ++inFlight;
    }

    /** Asynchronous policy: feed unit @p u its next slot. */
    void
    feed(uint32_t u)
    {
        size_t slot;
        if (units[u].busy || units[u].quarantined || !take(u, &slot))
            return;
        dispatch(slot, u);
        transferTargetInputs(sys, marshalled(slot), slots[slot].desc,
                             [this, slot] { launch(slot); });
    }

    /**
     * Synchronous policy: one slot per usable unit, then barrier.
     * The paper's initial design transferred the whole batch's
     * data before launching any unit; chain the per-target bursts
     * and launch everything at the last completion.
     */
    void
    syncBatch()
    {
        std::vector<size_t> batch;
        for (uint32_t u = 0; u < units.size(); ++u) {
            size_t slot;
            if (units[u].quarantined)
                continue;
            if (!take(u, &slot))
                break;
            dispatch(slot, u);
            batch.push_back(slot);
        }
        if (batch.empty())
            return;
        batchOutstanding = batch.size();
        for (size_t i = 0; i + 1 < batch.size(); ++i) {
            transferTargetInputs(sys, marshalled(batch[i]),
                                 slots[batch[i]].desc, [] {});
        }
        transferTargetInputs(sys, marshalled(batch.back()),
                             slots[batch.back()].desc,
                             [this, batch] {
                                 for (size_t slot : batch)
                                     launch(slot);
                             });
    }

    /**
     * An attempt ended (response collected or attempt abandoned):
     * hand out more work.  Async feeds the freed unit, or after a
     * failure every idle unit with the failed one last, so a
     * queued retry lands elsewhere when it can.  Sync starts the
     * next batch once the current one has drained.
     */
    void
    refill(int32_t freed, bool after_failure)
    {
        if (sync()) {
            if (batchOutstanding == 0)
                syncBatch();
            return;
        }
        if (!after_failure) {
            feed(static_cast<uint32_t>(freed));
            return;
        }
        for (uint32_t u = 0; u < units.size(); ++u) {
            if (static_cast<int32_t>(u) != freed)
                feed(u);
        }
        if (freed >= 0)
            feed(static_cast<uint32_t>(freed));
    }

    /** Inputs landed: verify them (hook), then ir_start. */
    void
    launch(size_t slot)
    {
        Slot &s = slots[slot];
        const size_t t = order[slot];
        const uint32_t unit = static_cast<uint32_t>(s.unit);
        if (ctx.harden && ctx.harden->verifyInputs &&
            deviceInputChecksum(slot) !=
                inputChecksum(marshalled(slot))) {
            ++rec.checksumInputCatches;
            trace("checksum-in target", t);
            obs::frEmit(obs::FrSeverity::Warn,
                        obs::FrCategory::Harden,
                        obs::FrCode::CrcMismatch, sys.now(), card, t,
                        unit, 0);
            // The DMA path corrupted the images; the unit never
            // ran, so it takes no strike.  The retry re-DMAs from
            // the host copy.
            fail(slot);
            refill(static_cast<int32_t>(unit), true);
            return;
        }
        s.phase = SlotPhase::Launched;
        sys.runTarget(
            unit, s.desc, t,
            [this, slot, unit](IrComputeResult &&res) {
                respond(slot, unit, std::move(res));
            },
            onDevice ? nullptr : &ctx.precomputed[t]);
    }

    /** The unit responded: verify its outputs (hook), collect. */
    void
    respond(size_t slot, uint32_t unit, IrComputeResult &&res)
    {
        const size_t t = order[slot];
        if (ctx.harden && ctx.harden->verifyOutputs &&
            deviceOutputChecksum(slot) != outputChecksum(res.output)) {
            ++rec.checksumOutputCatches;
            trace("checksum-out target", t);
            obs::frEmit(obs::FrSeverity::Warn,
                        obs::FrCategory::Harden,
                        obs::FrCode::CrcMismatch, sys.now(), card, t,
                        unit, 1);
            // The unit's MemWriters corrupted the buffers; it
            // finished (it is idle again) but takes a strike.
            if (++units[unit].strikes >=
                ctx.harden->quarantineThreshold)
                quarantine(unit);
            fail(slot);
            refill(static_cast<int32_t>(unit), true);
            return;
        }
        // The device copy is the architectural result.
        res.output = sys.readOutputs(slots[slot].desc);
        if (slots[slot].attempts > 1)
            ++rec.retrySuccesses;
        endAttempt(slot);
        resolve(slot, std::move(res));
        refill(static_cast<int32_t>(unit), false);
    }

    /** Release the unit of a slot's current attempt. */
    void
    endAttempt(size_t slot)
    {
        Slot &s = slots[slot];
        units[s.unit].busy = false;
        s.lastUnit = s.unit;
        s.unit = -1;
        --inFlight;
        if (sync())
            --batchOutstanding;
    }

    /** A hardware attempt failed: queue a retry, or give up on
     *  hardware once the attempts are spent. */
    void
    fail(size_t slot)
    {
        endAttempt(slot);
        slots[slot].phase = SlotPhase::Pending;
        if (slots[slot].attempts >= ctx.harden->maxAttempts)
            exhausted(slot);
        else
            retries.push_back(slot);
    }

    /** Record a slot's final result and its latency. */
    void
    resolve(size_t slot, IrComputeResult &&res)
    {
        Slot &s = slots[slot];
        const size_t t = order[slot];
        ctx.out.results[t] = std::move(res);
        s.phase = SlotPhase::Resolved;
        --unresolved;
        // Always-on: the percentile histograms cost two bucket
        // increments per target, recorder or no recorder.
        const Cycle waited = sys.now() - s.readyAt;
        ctx.out.targetLatencyCycles.record(waited);
        ctx.out.targetLatencyNanos.record(
            obs::nanos(sys.cyclesToSeconds(waited)));
        if (PerfMonitor *p = sys.perf()) {
            p->traceSpan("target " + std::to_string(t), "sched",
                         kTraceTidScheduler, s.readyAt, sys.now(), t);
        }
    }

    /**
     * Hardware attempts exhausted: resolve on the host-side
     * datapath model (the precomputed result over the pristine
     * marshalled bytes), or fail the target with a no-op result.
     */
    void
    exhausted(size_t slot)
    {
        const size_t t = order[slot];
        const uint32_t attempts = slots[slot].attempts;
        if (ctx.harden->softwareFallback) {
            ++rec.softwareFallbacks;
            trace("fallback target", t);
            obs::frEmit(obs::FrSeverity::Warn,
                        obs::FrCategory::Harden,
                        obs::FrCode::Fallback, sys.now(), card, t,
                        attempts);
            resolve(slot, IrComputeResult(ctx.precomputed[t]));
            return;
        }
        ++rec.failedTargets;
        obs::frEmit(obs::FrSeverity::Error, obs::FrCategory::Harden,
                    obs::FrCode::TargetFailed, sys.now(), card, t,
                    attempts);
        IrComputeResult noop;
        noop.output.realignFlags.assign(marshalled(slot).numReads, 0);
        noop.output.newPositions.assign(marshalled(slot).numReads, 0);
        resolve(slot, std::move(noop));
    }

    /** Retire unit @p u for the rest of the run. */
    void
    quarantine(uint32_t u)
    {
        if (units[u].quarantined)
            return;
        units[u].quarantined = true;
        ++rec.quarantinedUnits;
        trace("quarantine unit", u);
        obs::frEmit(obs::FrSeverity::Warn, obs::FrCategory::Harden,
                    obs::FrCode::Quarantine, sys.now(), card, u,
                    units[u].strikes);
    }

    bool
    anyUsableUnit() const
    {
        for (const UnitState &u : units)
            if (!u.quarantined)
                return true;
        return false;
    }

    /**
     * The event queue drained with targets still in flight: every
     * one of them lost its completion path.  Reclaim them all,
     * then hand the retries out.
     */
    void
    watchdogSweep()
    {
        for (size_t slot = 0; slot < slots.size(); ++slot) {
            Slot &s = slots[slot];
            if (s.phase != SlotPhase::Dispatched &&
                s.phase != SlotPhase::Launched)
                continue;
            // Dispatched: the DMA burst vanished before the unit
            // saw the target; the unit is idle and blameless.
            // Launched: ir_start was accepted and no response came
            // back, so the unit is wedged (hang or lost response)
            // and can never be reused.
            const bool wedged = s.phase == SlotPhase::Launched;
            ++rec.watchdogCatches;
            trace("watchdog target", order[slot]);
            obs::frEmit(obs::FrSeverity::Warn,
                        obs::FrCategory::Harden,
                        obs::FrCode::WatchdogTrip, sys.now(), card,
                        order[slot],
                        wedged ? static_cast<uint64_t>(s.unit)
                               : static_cast<uint64_t>(-1),
                        sys.now() - s.readyAt);
            if (wedged)
                quarantine(static_cast<uint32_t>(s.unit));
            fail(slot);
        }
        refill(-1, true);
    }

    /**
     * No usable unit is left.  On a fleet, hand every pending
     * target to the next card instead of burning fallbacks; on the
     * last card, exhaust them.
     */
    void
    strandPending()
    {
        retries.clear();
        nextFresh = slots.size();
        for (size_t slot = 0; slot < slots.size(); ++slot) {
            if (slots[slot].phase != SlotPhase::Pending)
                continue;
            if (!canMigrate) {
                exhausted(slot);
                continue;
            }
            migrated.push_back(order[slot]);
            ++rec.migratedTargets;
            trace("migrate target", order[slot]);
            slots[slot].phase = SlotPhase::Resolved;
            --unresolved;
        }
    }

    /** CRC the device copy of a slot's three input buffers. */
    uint32_t
    deviceInputChecksum(size_t slot) const
    {
        const MarshalledTarget &mt = marshalled(slot);
        const TargetDescriptor &desc = slots[slot].desc;
        DeviceMemory &mem = sys.memory();
        std::vector<uint8_t> buf = mem.readVec(
            desc.bufferAddr[static_cast<size_t>(
                IrBuffer::ConsensusBases)],
            mt.consensusData.size());
        uint32_t crc = crc32(buf.data(), buf.size());
        buf = mem.readVec(
            desc.bufferAddr[static_cast<size_t>(IrBuffer::ReadBases)],
            mt.readData.size());
        crc = crc32(buf.data(), buf.size(), crc);
        buf = mem.readVec(
            desc.bufferAddr[static_cast<size_t>(IrBuffer::ReadQuals)],
            mt.qualData.size());
        return crc32(buf.data(), buf.size(), crc);
    }

    /** CRC the device copy of a slot's two output buffers. */
    uint32_t
    deviceOutputChecksum(size_t slot) const
    {
        const TargetDescriptor &desc = slots[slot].desc;
        DeviceMemory &mem = sys.memory();
        std::vector<uint8_t> buf = mem.readVec(
            desc.bufferAddr[static_cast<size_t>(IrBuffer::OutFlags)],
            desc.numReads);
        uint32_t crc = crc32(buf.data(), buf.size());
        buf = mem.readVec(
            desc.bufferAddr[static_cast<size_t>(
                IrBuffer::OutPositions)],
            static_cast<uint64_t>(desc.numReads) * 4);
        return crc32(buf.data(), buf.size(), crc);
    }

    const RunContext &ctx;
    RecoveryStats &rec;
    FpgaSystem &sys;
    const int32_t card;
    const std::vector<size_t> order;
    const bool onDevice;   ///< units compute from device memory
    const bool canMigrate; ///< a later card can take stranded work
    std::vector<Slot> slots;
    std::vector<UnitState> units;
    std::deque<size_t> retries; ///< failed slots awaiting a unit
    size_t nextFresh = 0;       ///< next never-dispatched slot
    size_t unresolved;
    size_t inFlight = 0;
    size_t batchOutstanding = 0; ///< sync policy only
    std::vector<size_t> migrated;
};

/**
 * Evaluate every target's datapath result up front on worker
 * threads.  Each result is a pure function of the marshalled bytes
 * and the unit configuration, so the event-driven scheduling model
 * only replays the (deterministic) cycle costs -- and any card
 * placement of a target yields the same bits.
 */
std::vector<IrComputeResult>
precomputeResults(const AccelConfig &cfg,
                  const std::vector<MarshalledTarget> &targets)
{
    std::vector<IrComputeResult> precomputed(targets.size());
    ThreadPool pool(std::min<size_t>(
        8,
        std::max<size_t>(1, std::thread::hardware_concurrency())));
    pool.parallelFor(targets.size(), [&](size_t t) {
        precomputed[t] = irCompute(targets[t],
                                   cfg.dataParallelWidth,
                                   cfg.pruning);
    });
    return precomputed;
}

/**
 * Place the shards of the target list on @p cards cards (see
 * scheduleFleetTargets) and record each card's shard count and
 * steals in @p fleet.  @return each card's dispatch order.
 */
std::vector<std::vector<size_t>>
placeShards(const FleetConfig &fc, uint32_t cards,
            const std::vector<IrComputeResult> &precomputed,
            FleetExecStats &fleet)
{
    const size_t n = precomputed.size();
    const size_t S = fc.shardTargets;
    const size_t numShards = (n + S - 1) / S;
    auto shardRange = [&](size_t s, std::vector<size_t> &order) {
        const size_t begin = s * S;
        const size_t end = std::min(n, begin + S);
        for (size_t t = begin; t < end; ++t)
            order.push_back(t);
    };
    std::vector<std::vector<size_t>> orders(cards);

    if (cards == 1) {
        // One card has nothing to steal from: the shard queue
        // collapses into one continuous dispatch of the whole list.
        orders[0].resize(n);
        std::iota(orders[0].begin(), orders[0].end(), size_t{0});
        fleet.cardRow(0).shards = numShards;
        return orders;
    }
    if (!fc.stealing) {
        // Static round-robin homes.
        for (uint32_t k = 0; k < cards; ++k) {
            uint64_t shards = 0;
            for (size_t s = k; s < numShards; s += cards, ++shards) {
                size_t before = orders[k].size();
                shardRange(s, orders[k]);
                obs::frEmit(obs::FrSeverity::Debug,
                            obs::FrCategory::Sched,
                            obs::FrCode::ShardPlace, 0,
                            static_cast<int32_t>(k), s,
                            orders[k].size() - before);
            }
            fleet.cardRow(k).shards = shards;
        }
        return orders;
    }

    // Deterministic greedy stealing (LPT): shards are taken
    // heaviest-first (estimated by the precomputed datapath cycles
    // of their targets; ties break to the lower shard index) and
    // each goes to the card with the least estimated load so far
    // (ties break to the lowest card id); running a shard off its
    // round-robin home counts as a steal.  Heaviest-first both
    // balances the cards and front-loads the stragglers, so the
    // small shards backfill the units behind them.
    std::vector<uint64_t> shardCost(numShards, 0);
    for (size_t s = 0; s < numShards; ++s) {
        std::vector<size_t> members;
        shardRange(s, members);
        for (size_t t : members)
            shardCost[s] += precomputed[t].totalCycles();
    }
    std::vector<size_t> bySize(numShards);
    std::iota(bySize.begin(), bySize.end(), size_t{0});
    std::stable_sort(bySize.begin(), bySize.end(),
                     [&shardCost](size_t a, size_t b) {
                         return shardCost[a] > shardCost[b];
                     });

    std::vector<uint64_t> load(cards, 0);
    for (size_t s : bySize) {
        uint32_t best = 0;
        for (uint32_t k = 1; k < cards; ++k) {
            if (load[k] < load[best])
                best = k;
        }
        size_t before = orders[best].size();
        shardRange(s, orders[best]);
        obs::frEmit(obs::FrSeverity::Debug, obs::FrCategory::Sched,
                    obs::FrCode::ShardPlace, 0,
                    static_cast<int32_t>(best), s,
                    orders[best].size() - before);
        load[best] += shardCost[s];
        FleetCardExecStats &row = fleet.cardRow(best);
        ++row.shards;
        if (best != static_cast<uint32_t>(s % cards)) {
            ++row.steals;
            obs::frEmit(obs::FrSeverity::Info, obs::FrCategory::Sched,
                        obs::FrCode::ShardSteal, 0,
                        static_cast<int32_t>(best), s, s % cards);
        }
    }
    return orders;
}

/** Fold card @p k's statistics into the fleet aggregate. */
void
foldFleetStats(FpgaRunStats &agg, const FpgaRunStats &card, bool first)
{
    if (first) {
        agg = card;
        return;
    }
    // Cards run in parallel: cycles take the max (fleet makespan),
    // work counters add, utilization averages weighted by cycles.
    double busy = agg.meanUnitUtilization *
                  static_cast<double>(agg.totalCycles);
    busy += card.meanUnitUtilization *
            static_cast<double>(card.totalCycles);
    Cycle denom = agg.totalCycles + card.totalCycles;
    agg.totalCycles = std::max(agg.totalCycles, card.totalCycles);
    agg.wallSeconds = std::max(agg.wallSeconds, card.wallSeconds);
    agg.targetsProcessed += card.targetsProcessed;
    agg.commandsIssued += card.commandsIssued;
    agg.dmaBytes += card.dmaBytes;
    agg.dmaBusyCycles += card.dmaBusyCycles;
    agg.ddrBusyCycles += card.ddrBusyCycles;
    agg.meanUnitUtilization =
        denom > 0 ? busy / static_cast<double>(denom) : 0.0;
}

} // anonymous namespace

FleetScheduleResult
scheduleFleetTargets(FleetLease &lease,
                     const std::vector<MarshalledTarget> &targets,
                     SchedulePolicy policy, const HardenPolicy *harden)
{
    const uint32_t cards = lease.cards();
    FleetScheduleResult out;
    out.results.resize(targets.size());
    for (uint32_t k = 0; k < cards; ++k)
        out.fleet.cardRow(k); // idle cards still report a row

    Timer phase;
    std::vector<IrComputeResult> precomputed =
        precomputeResults(lease.config().card, targets);
    out.host.precomputeSeconds = phase.seconds();
    phase.restart();
    std::vector<uint64_t> eventsBefore(cards);
    for (uint32_t k = 0; k < cards; ++k)
        eventsBefore[k] = lease.card(k).events().executed();
    std::vector<std::vector<size_t>> orders =
        placeShards(lease.config(), cards, precomputed, out.fleet);

    // Fresh injector per card per call, so a plan's occurrence
    // counters restart per contig.  Only a hardened run attaches
    // faults, and only a non-empty plan gets an injector.
    std::vector<std::unique_ptr<FaultInjector>> injectors(cards);
    for (uint32_t k = 0; harden && k < cards; ++k) {
        if (lease.cardPlan(k).empty())
            continue;
        injectors[k] =
            std::make_unique<FaultInjector>(lease.cardPlan(k));
        FpgaSystem *sysk = &lease.card(k);
        injectors[k]->setObsContext(static_cast<int32_t>(k),
                                    [sysk] { return sysk->now(); });
        sysk->attachFaults(injectors[k].get());
    }

    // Run the cards in id order.  A wedged card's stranded targets
    // go ahead of the next card's own placement.
    const RunContext ctx{targets, precomputed, policy, harden, out};
    std::vector<size_t> carry;
    for (uint32_t k = 0; k < cards; ++k) {
        std::vector<size_t> order = std::move(carry);
        carry.clear();
        const size_t migratedIn = order.size();
        order.insert(order.end(), orders[k].begin(), orders[k].end());
        const size_t assigned = order.size();
        if (assigned > 0) {
            CardDispatch dispatch(ctx, lease.card(k),
                                  static_cast<int32_t>(k),
                                  std::move(order),
                                  injectors[k] != nullptr,
                                  k + 1 < cards);
            carry = dispatch.run();
        }
        if (!carry.empty()) {
            ++out.recovery.quarantinedCards;
            obs::frEmit(obs::FrSeverity::Error,
                        obs::FrCategory::Harden, obs::FrCode::Migrate,
                        lease.card(k).now(),
                        static_cast<int32_t>(k + 1), carry.size(), k);
        }
        FleetCardExecStats &row = out.fleet.cardRow(k);
        row.migrations = migratedIn;
        row.targets = assigned - carry.size();
    }

    out.cardPerf.reserve(cards);
    for (uint32_t k = 0; k < cards; ++k) {
        FpgaSystem &sys = lease.card(k);
        out.fleet.cardRow(k).busyCycles = sys.now();
        out.makespan = std::max(out.makespan, sys.now());
        foldFleetStats(out.fpga, sys.stats(), k == 0);
        std::vector<UnitTimelineEntry> tl = sys.timeline();
        out.timeline.insert(out.timeline.end(), tl.begin(),
                            tl.end());
        out.host.simEvents += sys.events().executed() - eventsBefore[k];
        out.cardPerf.push_back(sys.perfReport());
        out.perf.merge(out.cardPerf.back(), k);
        if (injectors[k]) {
            sys.attachFaults(nullptr);
            out.recovery.faultsInjected +=
                injectors[k]->totalInjected();
            for (size_t f = 0; f < kNumFaultKinds; ++f) {
                out.recovery.faultsByKind[f] +=
                    injectors[k]->injected(static_cast<FaultKind>(f));
            }
        }
    }
    out.fpga.totalCycles = out.makespan;
    out.fpga.whd = WhdStats{};
    for (const IrComputeResult &r : out.results)
        out.fpga.whd.merge(r.whd);
    out.perf.pidSpan = cards;
    if (out.recovery.failedTargets > 0)
        out.status = RunStatus::Failed;
    else if (out.recovery.anyRecovery())
        out.status = RunStatus::Degraded;
    lease.stats.merge(out.fleet);
    out.host.replaySeconds = phase.seconds();
    return out;
}

FleetScheduleResult
scheduleFleetTargets(const FleetConfig &fleet,
                     const std::vector<MarshalledTarget> &targets,
                     SchedulePolicy policy, const HardenPolicy *harden)
{
    CardFleet transient(fleet);
    FleetLease lease = transient.lease();
    return scheduleFleetTargets(lease, targets, policy, harden);
}

} // namespace iracc
