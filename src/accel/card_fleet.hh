/**
 * @file
 * The shared accelerator-fleet resource layer.
 *
 * The paper's deployment argument (Section VI) is about saturating
 * provisioned cloud FPGA capacity, so the engine models capacity as
 * a first-class resource: a CardFleet describes N identical F1
 * cards (each an AccelConfig's worth of IR units) and hands out
 * FleetLeases.  A lease materializes one fresh FpgaSystem per card
 * -- a private virtual timeline, so concurrent contigs of a
 * parallel job never share simulator state and modeled timing stays
 * a pure function of (targets, fleet configuration) -- while the
 * fleet itself persists across leases and accumulates the per-card
 * accounting (`fleet.*` metrics, see docs/OBSERVABILITY.md).
 *
 * Work is dispatched in shards (runs of consecutive targets); shard
 * i's home card is i % cards.  With stealing enabled the host
 * scheduler (host/scheduler.hh, scheduleFleetTargets) instead
 * places each shard on the least-loaded card, counting displaced
 * shards as steals.  Datapath results are pure functions of the
 * marshalled bytes, so any placement produces bit-identical
 * decisions; only the modeled makespan changes.
 *
 * Per-card fault attachment: FleetConfig::cardPlans[k] is card k's
 * FaultPlan (missing entries = fault-free).  A hardened run of the
 * scheduler (a HardenPolicy passed to scheduleFleetTargets) builds
 * one FaultInjector per card with a non-empty plan per lease, so
 * occurrence counters restart per contig.
 */

#ifndef IRACC_ACCEL_CARD_FLEET_HH
#define IRACC_ACCEL_CARD_FLEET_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "accel/fpga_system.hh"
#include "accel/params.hh"
#include "fault/fault.hh"

namespace iracc {

/** Configuration of a multi-card accelerator fleet. */
struct FleetConfig
{
    /** Per-card accelerator configuration (all cards identical). */
    AccelConfig card;

    /** Number of cards provisioned. */
    uint32_t cards = 1;

    /** Cross-card work stealing: place each shard on the
     *  least-loaded card instead of its round-robin home. */
    bool stealing = true;

    /** Targets per work shard (the dispatch granularity). */
    uint32_t shardTargets = 8;

    /**
     * Per-card fault schedules, indexed by card id; cards beyond
     * the vector's size are fault-free.  Only a hardened run
     * (one with a HardenPolicy) attaches them.
     */
    std::vector<FaultPlan> cardPlans;

    /** One-card fleet over @p cfg (the legacy single-card shape). */
    static FleetConfig
    singleCard(AccelConfig cfg)
    {
        FleetConfig f;
        f.card = cfg;
        return f;
    }
};

/** Per-card accounting of one fleet execution (one lease). */
struct FleetCardExecStats
{
    uint32_t card = 0;

    /** Final cycle of the card's virtual timeline. */
    Cycle busyCycles = 0;

    /** Targets resolved on this card. */
    uint64_t targets = 0;

    /** Shards dispatched to this card (its queue depth). */
    uint64_t shards = 0;

    /** Shards run here whose round-robin home was another card. */
    uint64_t steals = 0;

    /** Hardened only: targets migrated here off a wedged card. */
    uint64_t migrations = 0;
};

/** Fleet-level accounting of one (or many merged) executions. */
struct FleetExecStats
{
    /** Per-card rows, ascending card id. */
    std::vector<FleetCardExecStats> cards;

    /** True when the run went through the fleet scheduler. */
    bool enabled() const { return !cards.empty(); }

    uint64_t
    steals() const
    {
        uint64_t n = 0;
        for (const FleetCardExecStats &c : cards)
            n += c.steals;
        return n;
    }

    uint64_t
    migrations() const
    {
        uint64_t n = 0;
        for (const FleetCardExecStats &c : cards)
            n += c.migrations;
        return n;
    }

    uint64_t
    shards() const
    {
        uint64_t n = 0;
        for (const FleetCardExecStats &c : cards)
            n += c.shards;
        return n;
    }

    Cycle
    busyCycles() const
    {
        Cycle n = 0;
        for (const FleetCardExecStats &c : cards)
            n += c.busyCycles;
        return n;
    }

    /** Row for card @p id, created on demand (kept sorted). */
    FleetCardExecStats &cardRow(uint32_t id);

    /** Accumulate @p other's rows into this (matched by card id). */
    void merge(const FleetExecStats &other);
};

class CardFleet;

/**
 * One borrowed use of the whole fleet: fresh per-card FpgaSystem
 * instances (private virtual timelines) plus the per-card fault
 * plans.  Fill `stats` during execution; the destructor posts it
 * back to the owning fleet's cumulative accounting.  Movable,
 * non-copyable.
 */
class FleetLease
{
  public:
    FleetLease(FleetLease &&other) noexcept
        : stats(std::move(other.stats)), owner(other.owner),
          numCards(other.numCards),
          systems(std::move(other.systems))
    {
        other.owner = nullptr;
    }
    FleetLease &operator=(FleetLease &&) = delete;
    FleetLease(const FleetLease &) = delete;
    FleetLease &operator=(const FleetLease &) = delete;
    ~FleetLease();

    uint32_t cards() const { return numCards; }
    FpgaSystem &card(uint32_t k) { return *systems[k]; }
    const FleetConfig &config() const;

    /** Card @p k's fault schedule (empty plan when none). */
    const FaultPlan &cardPlan(uint32_t k) const;

    /** Per-card accounting of this use, posted home on release. */
    FleetExecStats stats;

  private:
    friend class CardFleet;
    explicit FleetLease(const CardFleet *fleet);

    const CardFleet *owner;
    uint32_t numCards;
    std::vector<std::unique_ptr<FpgaSystem>> systems;
};

/**
 * The shared fleet resource: card roster + cumulative accounting.
 * Thread-safe -- concurrent contig workers lease and release from
 * worker threads; the counters are folded under a mutex.
 */
class CardFleet
{
  public:
    explicit CardFleet(FleetConfig config);

    const FleetConfig &config() const { return cfg; }
    uint32_t numCards() const { return cfg.cards; }

    /** Card @p k's fault schedule (empty plan when none). */
    const FaultPlan &cardPlan(uint32_t k) const;

    /** Borrow the fleet: fresh per-card simulators. */
    FleetLease lease() const;

    /** Cumulative per-card accounting across released leases. */
    FleetExecStats totals() const;

    /** Leases issued so far. */
    uint64_t leasesIssued() const;

  private:
    friend class FleetLease;
    void release(const FleetExecStats &stats) const;

    FleetConfig cfg;
    FaultPlan emptyPlan;

    mutable std::mutex mu;
    mutable FleetExecStats cumulative;
    mutable uint64_t leases = 0;
};

} // namespace iracc

#endif // IRACC_ACCEL_CARD_FLEET_HH
