/**
 * @file
 * Deterministic fault injection for the simulated accelerator.
 *
 * A FaultPlan is a seeded, fully reproducible schedule of hardware
 * misbehaviour: flipped bits in device-memory writes, stalled
 * shared channels, IR units that hang mid-target, completion
 * responses that never arrive, and host DMA bursts that vanish.
 * The simulator consults a FaultInjector at well-defined hook
 * points (accel/device_memory, accel/memory, accel/ir_unit,
 * accel/fpga_system); a null injector costs one pointer test, so
 * the fault-free hot path is unchanged.
 *
 * Faults are addressed by *occurrence*: the Nth event matching a
 * spec's filters fires the fault.  Because the event-driven
 * simulation is bit-reproducible, occurrence counting makes every
 * fault schedule replayable from its textual form -- which is what
 * lets tools/iracc_diff minimize a fault-induced divergence into a
 * committed corpus case.
 *
 * Plan text format (parse()/describe() round-trip exactly):
 *
 *   spec[;spec...]
 *   spec := kind[:key=value[,key=value...]][@occurrence]
 *   kind := corrupt-write | stall | unit-hang | drop-response
 *           | dma-drop
 *   keys := unit=N        (unit-hang / drop-response filter)
 *           channel=NAME  (stall filter, e.g. ddr0, pcie-dma)
 *           bit=N         (corrupt-write: bit index into payload)
 *           cycles=N      (stall magnitude)
 *           repeat=N      (re-fire every N matching events after
 *                          the first; 0 = fire once)
 *
 *   e.g. "corrupt-write:bit=5@3;unit-hang:unit=2@1"
 */

#ifndef IRACC_FAULT_FAULT_HH
#define IRACC_FAULT_FAULT_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace iracc {

/** The modeled hardware failure modes. */
enum class FaultKind : uint8_t {
    CorruptWrite, ///< flip one bit of a device-memory write payload
    ChannelStall, ///< add latency to one shared-channel transfer
    UnitHang,     ///< unit accepts ir_start, then never progresses
    DropResponse, ///< outputs written, completion response lost
    DmaDrop,      ///< host-to-device DMA burst never completes
};

/** Number of FaultKind values (for per-kind counter arrays). */
constexpr size_t kNumFaultKinds = 5;

/** Stable text name of a kind (the plan-format token). */
const char *faultKindName(FaultKind kind);

/** One scheduled fault. */
struct FaultSpec
{
    FaultKind kind = FaultKind::CorruptWrite;

    /** Fires on the Nth matching event, 1-based. */
    uint64_t occurrence = 1;

    /** Re-fire every `repeat` matching events after the first
     *  firing; 0 = fire exactly once. */
    uint64_t repeat = 0;

    /** UnitHang/DropResponse: restrict to one unit (-1 = any). */
    int32_t unit = -1;

    /** ChannelStall: restrict to one channel name ("" = any). */
    std::string channel;

    /** CorruptWrite: bit index, folded into the payload length. */
    uint32_t bit = 0;

    /** ChannelStall: extra completion latency in cycles. */
    uint64_t stallCycles = 10000;
};

/** A deterministic, serializable schedule of faults. */
struct FaultPlan
{
    std::vector<FaultSpec> specs;

    bool empty() const { return specs.empty(); }

    /** Canonical text form (parse() round-trips it exactly). */
    std::string describe() const;

    /** Parse the text form; fatal() on malformed input. */
    static FaultPlan parse(const std::string &text);

    /**
     * A seeded random schedule of 1-3 faults for fuzzing
     * (tools/iracc_diff --fault-seeds).  Pure function of the seed.
     */
    static FaultPlan random(uint64_t seed);
};

/**
 * Runtime of one FaultPlan: per-spec occurrence counters plus
 * per-kind injected totals.  One injector serves one FpgaSystem
 * instance (one contig); all hooks run on the single-threaded
 * event loop, so no locking is needed.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan);

    /**
     * Device-memory write hook.  @return true when this write is
     * corrupted; *byte_off (< len) and *bit_mask describe the flip
     * the memory model must apply to the stored bytes.
     */
    bool corruptWrite(uint64_t addr, uint64_t len,
                      uint64_t *byte_off, uint8_t *bit_mask);

    /** Shared-channel hook: extra latency for this transfer. */
    uint64_t stallCycles(const std::string &channel);

    /** @return true when unit @p unit must hang at ir_start. */
    bool hangUnit(uint32_t unit);

    /** @return true when unit @p unit's response must be lost. */
    bool dropResponse(uint32_t unit);

    /** @return true when a host DMA burst must vanish. */
    bool dropDma();

    /** Faults injected of one kind so far. */
    uint64_t injected(FaultKind kind) const;

    /** Faults injected across all kinds. */
    uint64_t totalInjected() const;

    /**
     * Flight-recorder coordinates: the card this injector serves
     * and a cycle-domain clock (usually the owning FpgaSystem's
     * now()).  Every injected fault is then recorded with its spec
     * index, occurrence number, and canonical spec text.
     */
    void setObsContext(int32_t card,
                       std::function<uint64_t()> now);

  private:
    struct Armed
    {
        FaultSpec spec;
        uint64_t seen = 0;    ///< matching events observed
        uint32_t textId = 0;  ///< interned canonical spec text
    };

    /** Emit the flight-recorder event for a fired spec. */
    void noteInjected(const Armed &a);

    /** Occurrence bookkeeping shared by every hook. */
    bool fires(Armed &a);

    std::vector<Armed> armed;
    uint64_t counts[kNumFaultKinds] = {};
    int32_t obsCard = -1;
    std::function<uint64_t()> obsNow;
};

/**
 * CRC-32 (IEEE 802.3, reflected) over a byte range.  The hardened
 * execution path checksums marshalled input images and output
 * buffers with it, modeling the integrity unit a deployed design
 * would bolt onto the DMA engine and MemWriters.
 */
uint32_t crc32(const void *data, size_t len, uint32_t seed = 0);

/**
 * Health of one run (contig or whole job) under the hardened
 * execution path.  Ordered by severity so results aggregate with
 * worseStatus().
 */
enum class RunStatus : uint8_t {
    Ok,       ///< no recovery needed (absorbed stalls still Ok)
    Degraded, ///< every target correct, but recovery was exercised
    Failed,   ///< >= 1 target unrecoverable (left unrealigned)
};

/** Stable display name ("ok" / "degraded" / "failed"). */
const char *runStatusName(RunStatus status);

/** The more severe of two statuses. */
inline RunStatus
worseStatus(RunStatus a, RunStatus b)
{
    return a > b ? a : b;
}

/**
 * Counters of every detection/recovery event in one hardened run.
 * Exported as `fault.*` metrics by the contig pipeline (see
 * docs/ROBUSTNESS.md for the exact state machine).
 */
struct RecoveryStats
{
    /** Faults the injector actually fired (all kinds). */
    uint64_t faultsInjected = 0;

    /** Per-kind breakdown of faultsInjected (FaultKind order). */
    uint64_t faultsByKind[kNumFaultKinds] = {};

    /** Input-image CRC mismatches caught before ir_start. */
    uint64_t checksumInputCatches = 0;

    /** Output-buffer CRC mismatches caught at the response. */
    uint64_t checksumOutputCatches = 0;

    /** Targets reclaimed by the watchdog (hang / lost response /
     *  vanished DMA burst). */
    uint64_t watchdogCatches = 0;

    /** Hardware re-dispatches after a failed attempt. */
    uint64_t retries = 0;

    /** Targets whose retry produced a verified result. */
    uint64_t retrySuccesses = 0;

    /** Targets resolved by the host-side datapath model. */
    uint64_t softwareFallbacks = 0;

    /** Units retired (wedged, or over the strike threshold). */
    uint64_t quarantinedUnits = 0;

    /** Fleet: cards whose remaining work migrated because every
     *  unit on the card was quarantined. */
    uint64_t quarantinedCards = 0;

    /** Fleet: targets moved off a wedged card onto another. */
    uint64_t migratedTargets = 0;

    /** Targets left unresolved (no-op decision applied). */
    uint64_t failedTargets = 0;

    /** True when any recovery machinery fired (not mere stalls). */
    bool
    anyRecovery() const
    {
        return checksumInputCatches || checksumOutputCatches ||
               watchdogCatches || retries || softwareFallbacks ||
               quarantinedUnits || quarantinedCards ||
               migratedTargets || failedTargets;
    }

    void
    merge(const RecoveryStats &o)
    {
        faultsInjected += o.faultsInjected;
        for (size_t k = 0; k < kNumFaultKinds; ++k)
            faultsByKind[k] += o.faultsByKind[k];
        checksumInputCatches += o.checksumInputCatches;
        checksumOutputCatches += o.checksumOutputCatches;
        watchdogCatches += o.watchdogCatches;
        retries += o.retries;
        retrySuccesses += o.retrySuccesses;
        softwareFallbacks += o.softwareFallbacks;
        quarantinedUnits += o.quarantinedUnits;
        quarantinedCards += o.quarantinedCards;
        migratedTargets += o.migratedTargets;
        failedTargets += o.failedTargets;
    }
};

/**
 * Recovery policy of a hardened run: the hooks the one dispatcher
 * (host/scheduler.hh) runs when a policy is given.  The watchdog
 * sweeps whenever a card's event queue drains with targets still
 * in flight, so it needs no cycle budget.
 */
struct HardenPolicy
{
    /** Verify input images against a device readback before
     *  ir_start. */
    bool verifyInputs = true;

    /** Verify output buffers against the response's bytes. */
    bool verifyOutputs = true;

    /** Hardware attempts per target before falling back. */
    uint32_t maxAttempts = 3;

    /** Output-corruption strikes before a unit is quarantined
     *  (wedged units are quarantined immediately). */
    uint32_t quarantineThreshold = 2;

    /** Resolve exhausted targets on the host datapath model; when
     *  false they fail (no-op decision, RunStatus::Failed). */
    bool softwareFallback = true;
};

} // namespace iracc

#endif // IRACC_FAULT_FAULT_HH
