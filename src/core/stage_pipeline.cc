#include "core/stage_pipeline.hh"

#include <string>

#include "obs/flight_recorder.hh"
#include "obs/obs.hh"
#include "util/logging.hh"

namespace iracc {

ExecuteOutcome
SoftwareExecuteStage::execute(const PreparedContig &prepared,
                              uint64_t rng_seed)
{
    ExecuteOutcome out;
    SoftwareRealignerConfig params = cfg;
    params.rngSeed = rng_seed;
    out.decisions = executeStageSoftware(prepared, params, &out.whd);
    return out;
}

ExecuteOutcome
AcceleratedExecuteStage::execute(const PreparedContig &prepared,
                                 uint64_t rng_seed)
{
    (void)rng_seed; // the accelerated datapath is RNG-free
    panic_if(prepared.marshalled.size() != prepared.inputs.size(),
             "accelerated Execute stage needs marshalled targets "
             "(prepareStage(..., marshal=true))");
    FleetLease lease = fleet.lease();
    FleetScheduleResult run = scheduleFleetTargets(
        lease, prepared.marshalled, policy, harden);

    // Translate raw accelerator outputs into decisions.
    ExecuteOutcome out;
    out.decisions.reserve(prepared.inputs.size());
    for (size_t t = 0; t < prepared.inputs.size(); ++t) {
        const IrComputeResult &res = run.results[t];
        out.decisions.push_back(outputToDecision(
            prepared.inputs[t], res.bestConsensus, res.output));
    }
    out.fpgaSeconds = lease.card(0).cyclesToSeconds(run.makespan);
    out.whd = run.fpga.whd;
    out.unitUtilization = run.fpga.meanUnitUtilization;
    if (run.makespan > 0) {
        out.dmaFraction =
            static_cast<double>(run.fpga.dmaBusyCycles) /
            static_cast<double>(run.makespan);
    }
    out.perf = std::move(run.perf);
    out.recovery = run.recovery;
    out.status = run.status;
    out.fleet = std::move(run.fleet);
    out.targetLatencyCycles = run.targetLatencyCycles;
    out.targetLatencyNanos = run.targetLatencyNanos;
    out.execHost = run.host;
    return out;
}

BackendRunResult
runContigPipeline(const ReferenceGenome &ref, int32_t contig,
                  std::vector<Read> &reads,
                  const TargetCreationParams &targets,
                  ExecuteStage &exec, uint32_t prepare_threads,
                  const std::vector<uint32_t> *candidates,
                  obs::Observability *obsv)
{
    BackendRunResult out;

    // Plan: target creation + read claiming (no mutation).
    obs::ScopedSpan plan_span(obsv, "plan", "realign",
                              "realign.stage.plan_ns");
    ContigPlan plan = planStage(ref, contig, reads, targets,
                                candidates);
    out.stageTimes.planSeconds = plan_span.close();
    obs::frEmit(obs::FrSeverity::Debug, obs::FrCategory::Stage,
                obs::FrCode::StagePlan, 0, -1, plan.targets.size());

    // Prepare: consensus generation (+ marshalling when the
    // Execute stage consumes byte images).
    obs::ScopedSpan prepare_span(obsv, "prepare", "realign",
                                 "realign.stage.prepare_ns");
    PreparedContig prepared =
        prepareStage(ref, reads, plan,
                     exec.needsMarshalledTargets(), prepare_threads);
    out.stageTimes.prepareSeconds = prepare_span.close();
    obs::frEmit(obs::FrSeverity::Debug, obs::FrCategory::Stage,
                obs::FrCode::StagePrepare, 0, -1,
                prepared.inputs.size());

    // Execute: the backend-specific kernel.  Host wall-clock of the
    // call (for accelerated backends that is the simulation run);
    // the modeled FPGA time is outcome.fpgaSeconds.
    obs::ScopedSpan exec_span(obsv, "execute", "realign",
                              "realign.stage.execute_ns");
    ExecuteOutcome outcome = exec.execute(prepared, kRealignStreamSeed);
    out.stageTimes.executeSeconds = exec_span.close();
    out.execHost = outcome.execHost;
    obs::frEmit(obs::FrSeverity::Debug, obs::FrCategory::Stage,
                obs::FrCode::StageExecute, 0, -1,
                prepared.inputs.size(),
                outcome.targetLatencyCycles.max());

    // Apply: decision writeback + stats assembly.
    obs::ScopedSpan apply_span(obsv, "apply", "realign",
                               "realign.stage.apply_ns");
    out.stats = applyStage(prepared, outcome.decisions, reads);
    out.stageTimes.applySeconds = apply_span.close();
    obs::frEmit(obs::FrSeverity::Debug, obs::FrCategory::Stage,
                obs::FrCode::StageApply, 0, -1,
                out.stats.readsRealigned);

    out.stats.whd = outcome.whd;

    if (obsv && obsv->metrics) {
        obs::MetricsRegistry &reg = *obsv->metrics;
        reg.counter("realign.targets").add(out.stats.targets);
        reg.counter("realign.reads_considered")
            .add(out.stats.readsConsidered);
        reg.counter("realign.reads_realigned")
            .add(out.stats.readsRealigned);
        reg.counter("realign.consensuses_evaluated")
            .add(out.stats.consensusesEvaluated);

        // Fault/recovery counters, only when something happened so
        // fault-free runs keep a clean registry.
        const RecoveryStats &rec = outcome.recovery;
        if (rec.faultsInjected > 0) {
            reg.counter("fault.injected").add(rec.faultsInjected);
            for (size_t k = 0; k < kNumFaultKinds; ++k) {
                if (rec.faultsByKind[k] > 0) {
                    reg.counter(std::string("fault.injected.") +
                                faultKindName(
                                    static_cast<FaultKind>(k)))
                        .add(rec.faultsByKind[k]);
                }
            }
        }
        auto count = [&reg](const char *name, uint64_t value) {
            if (value > 0)
                reg.counter(name).add(value);
        };
        count("fault.checksum_input_catches",
              rec.checksumInputCatches);
        count("fault.checksum_output_catches",
              rec.checksumOutputCatches);
        count("fault.watchdog_catches", rec.watchdogCatches);
        count("fault.retries", rec.retries);
        count("fault.retry_successes", rec.retrySuccesses);
        count("fault.software_fallbacks", rec.softwareFallbacks);
        count("fault.quarantined_units", rec.quarantinedUnits);
        count("fault.quarantined_cards", rec.quarantinedCards);
        count("fault.migrated_targets", rec.migratedTargets);
        count("fault.failed_targets", rec.failedTargets);
        count("realign.contigs_degraded",
              outcome.status == RunStatus::Degraded ? 1 : 0);
        count("realign.contigs_failed",
              outcome.status == RunStatus::Failed ? 1 : 0);

        // Per-target latency percentiles (accelerated backends
        // only): exact merge into the job-wide distributions.
        if (outcome.targetLatencyCycles.count() > 0) {
            reg.histogram("realign.target.latency_cycles")
                .merge(outcome.targetLatencyCycles);
            reg.histogram("realign.target.latency_ns")
                .merge(outcome.targetLatencyNanos);
        }

        // Fleet dispatch accounting (accelerated backends only).
        if (outcome.fleet.enabled()) {
            reg.counter("fleet.card_busy_cycles")
                .add(outcome.fleet.busyCycles());
            count("fleet.steals", outcome.fleet.steals());
            count("fleet.migrations", outcome.fleet.migrations());
            for (const FleetCardExecStats &c : outcome.fleet.cards) {
                reg.histogram("fleet.queue_depth").record(c.shards);
            }
        }
    }
    out.simulated = exec.needsMarshalledTargets();
    out.fpgaSeconds = outcome.fpgaSeconds;
    out.dmaFraction = outcome.dmaFraction;
    out.unitUtilization = outcome.unitUtilization;
    out.perf = std::move(outcome.perf);
    out.recovery = outcome.recovery;
    out.status = outcome.status;
    out.fleet = std::move(outcome.fleet);
    out.targetLatencyCycles = outcome.targetLatencyCycles;
    out.targetLatencyNanos = outcome.targetLatencyNanos;
    return out;
}

} // namespace iracc
