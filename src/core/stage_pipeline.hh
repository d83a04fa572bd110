/**
 * @file
 * Backend-facing contract of the staged realignment pipeline.
 *
 * The realign layer (realign/stages.hh) provides the stage data
 * and the Plan / Prepare / Apply implementations; this header adds
 * the piece that differs per backend -- the Execute stage -- as a
 * small interface, plus the driver that runs one contig through
 * Plan -> Prepare -> Execute -> Apply and assembles the uniform
 * BackendRunResult.  The software baselines and the simulated
 * accelerated system plug in here and share everything else,
 * which is what preserves the bit-equality guarantee.
 */

#ifndef IRACC_CORE_STAGE_PIPELINE_HH
#define IRACC_CORE_STAGE_PIPELINE_HH

#include <memory>
#include <vector>

#include "fault/fault.hh"
#include "genomics/read.hh"
#include "obs/latency_histogram.hh"
#include "genomics/reference.hh"
#include "host/scheduler.hh"
#include "realign/realigner.hh"
#include "realign/stages.hh"
#include "sim/perf_monitor.hh"

namespace iracc {

namespace obs {
struct Observability;
}

/** Host-measured wall-clock seconds per pipeline stage. */
struct StageTimes
{
    double planSeconds = 0.0;
    double prepareSeconds = 0.0;
    double executeSeconds = 0.0;
    double applySeconds = 0.0;

    double
    hostSeconds() const
    {
        return planSeconds + prepareSeconds + applySeconds;
    }
};

/** Result of one backend run over a contig. */
struct BackendRunResult
{
    RealignStats stats;

    /**
     * End-to-end runtime in seconds.  For software backends this
     * is measured host wall-clock; for accelerated backends it is
     * the simulated FPGA time (cycles / clock) plus measured host
     * pre/post-processing, matching the paper's end-to-end
     * measurement (Section V-A).
     */
    double seconds = 0.0;

    /** True when `seconds` came from the cycle-level simulator. */
    bool simulated = false;

    /** Accelerated backends: simulated-FPGA seconds only. */
    double fpgaSeconds = 0.0;

    /** Accelerated backends: DMA share of total cycles. */
    double dmaFraction = 0.0;

    /** Accelerated backends: mean unit utilization. */
    double unitUtilization = 0.0;

    /** Per-stage breakdown of the pipeline run. */
    StageTimes stageTimes;

    /** Accelerated backends: Execute host time by phase. */
    ExecuteHostSplit execHost;

    /**
     * Accelerated backends: performance-counter snapshot
     * (perf.enabled == false unless the backend was created with
     * counters on; see makeBackend and docs/OBSERVABILITY.md).
     */
    PerfReport perf;

    /**
     * Hardened backends: recovery-event counters and run health
     * (Ok for every other backend; see docs/ROBUSTNESS.md).
     */
    RecoveryStats recovery;
    RunStatus status = RunStatus::Ok;

    /**
     * Accelerated backends: per-card fleet dispatch accounting
     * (empty for software backends; see docs/OBSERVABILITY.md,
     * `fleet.*`).
     */
    FleetExecStats fleet;

    /**
     * Accelerated backends: always-on per-target latency
     * percentiles, dispatch to completion, in both clock domains
     * (empty for software backends).  Mergeable exactly across
     * contigs/runs; see docs/OBSERVABILITY.md.
     */
    obs::LatencyHistogram targetLatencyCycles;
    obs::LatencyHistogram targetLatencyNanos;
};

/** Uniform outcome of a backend's Execute stage. */
struct ExecuteOutcome
{
    /** One decision per prepared target, index-aligned. */
    std::vector<ConsensusDecision> decisions;

    /** Kernel work counters of the stage. */
    WhdStats whd;

    /**
     * Execute-stage seconds: measured wall-clock for software,
     * simulated FPGA time plus output-conversion host time for
     * accelerated backends.
     */
    double seconds = 0.0;

    /** True when `seconds` came from the cycle-level simulator. */
    bool simulated = false;

    double fpgaSeconds = 0.0;
    double dmaFraction = 0.0;
    double unitUtilization = 0.0;
    PerfReport perf;

    /** Accelerated backends: host time of the stage by phase
     *  (datapath precompute vs. event replay) and simulator
     *  events. */
    ExecuteHostSplit execHost;

    /** Hardened backends: recovery counters and run health. */
    RecoveryStats recovery;
    RunStatus status = RunStatus::Ok;

    /** Accelerated backends: per-card fleet accounting. */
    FleetExecStats fleet;

    /** Accelerated backends: always-on per-target latency from
     *  dispatch to completion (cycle domain + modeled ns). */
    obs::LatencyHistogram targetLatencyCycles;
    obs::LatencyHistogram targetLatencyNanos;
};

/**
 * The per-backend Execute stage.  Instances are created per
 * contig (RealignerBackend::makeExecuteStage), so a stage may
 * hold per-contig state; execute() itself is called exactly once.
 */
class ExecuteStage
{
  public:
    virtual ~ExecuteStage() = default;

    /** True when Prepare must also produce the DMA byte images. */
    virtual bool needsMarshalledTargets() const = 0;

    /**
     * Run the kernel over every prepared target.
     *
     * @param rng_seed base seed of this run's deterministic RNG
     *        streams (per-contig streams are derived from it)
     */
    virtual ExecuteOutcome execute(const PreparedContig &prepared,
                                   uint64_t rng_seed) = 0;
};

/** Execute stage of the software baselines (WHD kernel on host). */
class SoftwareExecuteStage : public ExecuteStage
{
  public:
    explicit SoftwareExecuteStage(SoftwareRealignerConfig cfg)
        : cfg(std::move(cfg))
    {
    }

    bool needsMarshalledTargets() const override { return false; }

    ExecuteOutcome execute(const PreparedContig &prepared,
                           uint64_t rng_seed) override;

  private:
    SoftwareRealignerConfig cfg;
};

/**
 * Execute stage of every accelerated backend: borrows a card lease
 * (fresh per-card virtual timelines) from the backend's shared
 * CardFleet, runs the one dispatcher (scheduleFleetTargets) over
 * the marshalled targets, and converts the raw outputs into
 * decisions.  A hardened backend passes its HardenPolicy, which
 * turns on the recovery hooks and attaches the fleet's per-card
 * FaultPlans; RecoveryStats / RunStatus then surface through
 * ExecuteOutcome.  Holds references; the owning backend must
 * outlive the stage.
 */
class AcceleratedExecuteStage : public ExecuteStage
{
  public:
    AcceleratedExecuteStage(const CardFleet &fleet,
                            SchedulePolicy policy,
                            const HardenPolicy *harden)
        : fleet(fleet), policy(policy), harden(harden)
    {
    }

    bool needsMarshalledTargets() const override { return true; }

    ExecuteOutcome execute(const PreparedContig &prepared,
                           uint64_t rng_seed) override;

  private:
    const CardFleet &fleet;
    SchedulePolicy policy;
    const HardenPolicy *harden; ///< null = plain, no hooks
};

/**
 * Drive one contig through Plan -> Prepare -> Execute -> Apply.
 *
 * @param targets         target-creation knobs
 * @param exec            the backend's Execute stage
 * @param prepare_threads worker threads for input assembly
 * @param candidates      optional pre-partitioned read-index
 *                        subset for the Plan stage (see planStage)
 * @param rng_seed        base seed for deterministic RNG streams
 * @param obs             optional host observability: one trace
 *                        span per stage, per-stage
 *                        `realign.stage.<stage>_ns`
 *                        histograms and realignment work counters
 *                        (null = uninstrumented)
 */
BackendRunResult runContigPipeline(
    const ReferenceGenome &ref, int32_t contig,
    std::vector<Read> &reads, const TargetCreationParams &targets,
    ExecuteStage &exec, uint32_t prepare_threads = 1,
    const std::vector<uint32_t> *candidates = nullptr,
    uint64_t rng_seed = kRealignStreamSeed,
    obs::Observability *obs = nullptr);

} // namespace iracc

#endif // IRACC_CORE_STAGE_PIPELINE_HH
