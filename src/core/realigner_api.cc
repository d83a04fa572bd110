#include "core/realigner_api.hh"

#include <algorithm>
#include <optional>

#include "realign/whd_simd.hh"
#include "util/logging.hh"

namespace iracc {

namespace {

/** Software baseline backend: software Execute stage. */
class SoftwareBackend : public RealignerBackend
{
  public:
    SoftwareBackend(std::string name, std::string desc,
                    SoftwareRealignerConfig cfg)
        : backendName(std::move(name)), desc(std::move(desc)),
          cfg(std::move(cfg))
    {
    }

    std::string name() const override { return backendName; }
    std::string description() const override { return desc; }

    TargetCreationParams
    targetParams() const override
    {
        return cfg.targetParams;
    }

    uint32_t hostThreads() const override { return cfg.threads; }

    std::unique_ptr<ExecuteStage>
    makeExecuteStage(uint32_t concurrent_contigs) const override
    {
        // Contig-parallel jobs split the backend's target-level
        // workers across contigs instead of oversubscribing.
        SoftwareRealignerConfig stage_cfg = cfg;
        if (concurrent_contigs > 1) {
            stage_cfg.threads = std::max(
                1u, cfg.threads / concurrent_contigs);
        }
        return std::make_unique<SoftwareExecuteStage>(stage_cfg);
    }

  private:
    std::string backendName;
    std::string desc;
    SoftwareRealignerConfig cfg;
};

/**
 * Simulated-FPGA backend, plain or hardened: one shared CardFleet,
 * a scheduling policy, and optionally the recovery hooks.
 */
class AcceleratedBackend : public RealignerBackend
{
  public:
    AcceleratedBackend(std::string name, std::string desc,
                       FleetConfig fleet_cfg, SchedulePolicy policy,
                       std::optional<HardenPolicy> harden)
        : backendName(std::move(name)), desc(std::move(desc)),
          fleet(std::move(fleet_cfg)), policy(policy),
          harden(harden)
    {
        fatal_if(harden && harden->maxAttempts == 0,
                 "harden policy needs >= 1 attempt");
    }

    std::string name() const override { return backendName; }
    std::string description() const override { return desc; }

    std::unique_ptr<ExecuteStage>
    makeExecuteStage(uint32_t) const override
    {
        // Each stage (= contig) leases fresh per-card simulators
        // (and, when hardened, fresh FaultInjectors) from the
        // shared fleet, so contig-parallel runs stay deterministic
        // while the fleet accumulates cross-contig accounting.
        return std::make_unique<AcceleratedExecuteStage>(
            fleet, policy, harden ? &*harden : nullptr);
    }

    const FleetConfig *
    fleetShape() const override
    {
        return &fleet.config();
    }

  private:
    std::string backendName;
    std::string desc;
    CardFleet fleet;
    SchedulePolicy policy;
    std::optional<HardenPolicy> harden;
};

/** Registry configuration of one accelerated backend name. */
struct AccelRegistryEntry
{
    const char *desc;
    AccelConfig cfg;
    SchedulePolicy policy;
};

bool
accelRegistryEntry(const std::string &name, AccelRegistryEntry *out)
{
    if (name == "iracc") {
        *out = {"32 IR units, 32-wide data parallel, pruning, async",
                AccelConfig::paperOptimized(),
                SchedulePolicy::AsynchronousParallel};
        return true;
    }
    if (name == "iracc-taskp") {
        *out = {"32 scalar IR units, synchronous batches",
                AccelConfig::taskParallelOnly(),
                SchedulePolicy::SynchronousParallel};
        return true;
    }
    if (name == "iracc-taskp-async") {
        *out = {"32 scalar IR units, async scheduling",
                AccelConfig::taskParallelOnly(),
                SchedulePolicy::AsynchronousParallel};
        return true;
    }
    if (name == "hls") {
        *out = {"SDAccel/HLS build: 16 scalar units, no pruning",
                AccelConfig::hlsSdaccel(),
                SchedulePolicy::AsynchronousParallel};
        return true;
    }
    return false;
}

} // anonymous namespace

std::unique_ptr<RealignerBackend>
makeSoftwareBackend(std::string name, std::string description,
                    SoftwareRealignerConfig config)
{
    fatal_if(config.threads == 0, "realigner needs >= 1 thread");
    fatal_if(config.workAmplification < 1.0,
             "work amplification must be >= 1.0");
    return std::make_unique<SoftwareBackend>(
        std::move(name), std::move(description), std::move(config));
}

std::unique_ptr<RealignerBackend>
makeAcceleratedBackend(std::string name, std::string description,
                       AccelConfig config, SchedulePolicy policy)
{
    return makeAcceleratedBackend(std::move(name),
                                  std::move(description),
                                  FleetConfig::singleCard(config),
                                  policy);
}

std::unique_ptr<RealignerBackend>
makeAcceleratedBackend(std::string name, std::string description,
                       FleetConfig fleet, SchedulePolicy policy)
{
    return std::make_unique<AcceleratedBackend>(
        std::move(name), std::move(description), std::move(fleet),
        policy, std::nullopt);
}

std::unique_ptr<RealignerBackend>
makeHardenedBackend(std::string name, std::string description,
                    AccelConfig config, FaultPlan plan,
                    HardenPolicy policy)
{
    FleetConfig fleet = FleetConfig::singleCard(config);
    fleet.cardPlans = {std::move(plan)};
    return makeHardenedBackend(std::move(name),
                               std::move(description),
                               std::move(fleet), policy);
}

std::unique_ptr<RealignerBackend>
makeHardenedBackend(std::string name, std::string description,
                    FleetConfig fleet, HardenPolicy policy)
{
    return std::make_unique<AcceleratedBackend>(
        std::move(name), std::move(description), std::move(fleet),
        SchedulePolicy::AsynchronousParallel, policy);
}

std::unique_ptr<RealignerBackend>
makeHardenedBackend(const std::string &name, bool perf_counters,
                    bool perf_trace, FaultPlan plan,
                    HardenPolicy policy, uint32_t cards,
                    bool stealing)
{
    AccelRegistryEntry entry;
    fatal_if(!accelRegistryEntry(name, &entry),
             "backend '%s' is not accelerated; --harden and "
             "--fault-plan need a simulated device",
             name.c_str());
    fatal_if(cards == 0, "a fleet needs >= 1 card");
    entry.cfg.perfCounters = perf_counters;
    entry.cfg.perfTrace = perf_trace;
    FleetConfig fleet = FleetConfig::singleCard(entry.cfg);
    fleet.cards = cards;
    fleet.stealing = stealing;
    fleet.cardPlans = {std::move(plan)};
    return std::make_unique<AcceleratedBackend>(
        name, std::string(entry.desc) + " (hardened)",
        std::move(fleet), entry.policy, policy);
}

std::unique_ptr<RealignerBackend>
makeBackend(const std::string &name, bool perf_counters,
            bool perf_trace, uint32_t cards, bool stealing)
{
    SoftwareRealignerConfig sw;
    fatal_if(cards == 0, "a fleet needs >= 1 card");
    const bool software_name =
        name == "gatk3" || name == "gatk3-1t" || name == "adam" ||
        name == "native";
    fatal_if(software_name && cards > 1,
             "backend '%s' is software; --cards needs a simulated "
             "device fleet",
             name.c_str());

    // Accelerated configurations pick up the observability flags;
    // applied below via this helper.
    auto accel = [&](AccelConfig cfg) {
        cfg.perfCounters = perf_counters;
        cfg.perfTrace = perf_trace;
        return cfg;
    };

    if (name == "gatk3") {
        sw.prune = false;
        sw.threads = 8;
        sw.workAmplification = kJvmWorkAmplification;
        return makeSoftwareBackend(
            name, "GATK3-style software IR, 8 threads", sw);
    }
    if (name == "gatk3-1t") {
        sw.prune = false;
        sw.threads = 1;
        sw.workAmplification = kJvmWorkAmplification;
        return makeSoftwareBackend(
            name, "GATK3-style software IR, 1 thread", sw);
    }
    if (name == "adam") {
        sw.prune = true;
        sw.threads = 8;
        sw.workAmplification = kJvmWorkAmplification;
        return makeSoftwareBackend(
            name, "ADAM-style optimized software IR, 8 threads", sw);
    }
    if (name == "native") {
        sw.prune = true;
        sw.threads = 8;
        sw.workAmplification = 1;
        return makeSoftwareBackend(
            name, "tuned native software IR, 8 threads", sw);
    }
    AccelRegistryEntry entry;
    if (accelRegistryEntry(name, &entry)) {
        FleetConfig fleet =
            FleetConfig::singleCard(accel(entry.cfg));
        fleet.cards = cards;
        fleet.stealing = stealing;
        return makeAcceleratedBackend(name, entry.desc,
                                      std::move(fleet),
                                      entry.policy);
    }
    fatal("unknown realigner backend '%s'", name.c_str());
}

std::vector<std::string>
backendNames()
{
    return {"gatk3",       "gatk3-1t",          "adam",
            "native",      "iracc",             "iracc-taskp",
            "iracc-taskp-async", "hls"};
}

std::vector<BackendVariant>
differentialVariants(const std::vector<uint32_t> &job_threads)
{
    std::vector<BackendVariant> out;
    for (bool accelerated : {false, true}) {
        for (bool prune : {false, true}) {
            for (uint32_t threads : job_threads) {
                BackendVariant v;
                v.accelerated = accelerated;
                v.prune = prune;
                v.jobThreads = threads;
                v.label =
                    std::string(accelerated ? "accelerated"
                                            : "software") +
                    "/prune=" + (prune ? "on" : "off") +
                    "/jobs=" + std::to_string(threads);
                out.push_back(std::move(v));
            }
        }
    }
    // Dispatch design points: every supported WHD kernel must be
    // indistinguishable from the oracle.  Pinned explicitly (the
    // base matrix runs whatever dispatch resolves ambiently, which
    // CI steers via IRACC_KERNEL).
    for (SimdKernel kernel : supportedSimdKernels()) {
        for (bool prune : {false, true}) {
            BackendVariant v;
            v.accelerated = false;
            v.prune = prune;
            v.jobThreads = 1;
            v.kernel = simdKernelName(kernel);
            v.label = std::string("software/prune=") +
                      (prune ? "on" : "off") +
                      "/jobs=1/kernel=" + v.kernel;
            out.push_back(std::move(v));
        }
    }
    // Fleet design points: card placement (and work stealing) must
    // be output-invisible -- only the modeled timing may change.
    for (uint32_t cards : {2u, 4u}) {
        for (bool stealing : {true, false}) {
            BackendVariant v;
            v.accelerated = true;
            v.prune = true;
            v.jobThreads = 1;
            v.cards = cards;
            v.stealing = stealing;
            v.label = "accelerated/prune=on/jobs=1/cards=" +
                      std::to_string(cards) +
                      "/steal=" + (stealing ? "on" : "off");
            out.push_back(std::move(v));
        }
    }
    return out;
}

std::unique_ptr<RealignerBackend>
makeVariantBackend(const BackendVariant &variant)
{
    if (!variant.accelerated) {
        SoftwareRealignerConfig cfg;
        cfg.prune = variant.prune;
        cfg.threads = 2;
        cfg.workAmplification = 1.0;
        return makeSoftwareBackend(
            variant.label, "differential software design point",
            cfg);
    }
    AccelConfig cfg = AccelConfig::paperOptimized();
    cfg.pruning = variant.prune;
    FleetConfig fleet = FleetConfig::singleCard(cfg);
    fleet.cards = variant.cards == 0 ? 1 : variant.cards;
    fleet.stealing = variant.stealing;
    if (variant.hardened) {
        return makeHardenedBackend(
            variant.label,
            "differential hardened accelerated design point",
            std::move(fleet));
    }
    return makeAcceleratedBackend(
        variant.label, "differential accelerated design point",
        std::move(fleet), SchedulePolicy::AsynchronousParallel);
}

} // namespace iracc
