/**
 * @file
 * iracc_diff: the cross-backend differential fuzzer.
 *
 * Generates seeded randomized workloads (testing/workload_gen.hh),
 * runs every registered backend design point on each, and asserts
 * bit-equality of realigned outputs, min-WHD grids, work counters,
 * and downstream variant calls (testing/differential.hh).  On a
 * mismatch it greedily minimizes the workload, writes a
 * self-contained repro case (testing/corpus.hh) for committing to
 * tests/corpus/ plus a post-mortem bundle (core/postmortem.hh)
 * right beside it, then exits non-zero.
 *
 *   iracc_diff --seeds 200                      # CI budget
 *   iracc_diff --seeds 5000 --start-seed 1000   # longer local run
 *   iracc_diff --corpus tests/corpus            # where repros land
 *   iracc_diff --seeds 0 --fault-seeds 100      # fault-plan fuzzing
 *
 * Every seed runs the kernel-level differential (a dozen targets
 * sweeping the realign/limits.hh boundaries); every
 * --pipeline-every'th seed additionally synthesizes a small genome
 * and runs the full eight-variant pipeline differential.
 *
 * --fault-seeds N additionally fuzzes the hardened execution path:
 * each seed realigns a generated genome under FaultPlan::random's
 * injected hardware faults and must still reproduce the plain
 * accelerated backend's bit-exact output (testing/differential.hh,
 * diffFaultSeed).  Divergences are minimized with the fault plan
 * held fixed and land as kind-"fault" corpus cases.
 *
 * Every pipeline seed also runs the streaming-ingest differential
 * (diffStreamingIngest): the workload is serialized to SAM-lite,
 * re-ingested through the bounded-memory streaming path, and must
 * produce byte-identical realigned output on every design point
 * (--no-stream skips it).
 *
 * --scenario-seeds N fuzzes the hostile-workload scenario profiles
 * (workload_gen.hh: long-read, sv-dense, low-complexity,
 * tumor-normal, contaminated); --scenario-fault-seeds N soaks the
 * same profiles through the hardened path under random fault
 * plans.  --scenario NAME restricts both to one profile.
 * --emit-scenario-corpus DIR writes one compact, verified corpus
 * case per profile (what tests/corpus/ commits) and exits.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/realign_job.hh"
#include "obs/flight_recorder.hh"
#include "testing/corpus.hh"
#include "testing/differential.hh"
#include "testing/workload_gen.hh"
#include "util/argparse.hh"
#include "util/logging.hh"

namespace {

using namespace iracc;
using namespace iracc::difftest;

struct Options
{
    uint64_t seeds = 20;
    uint64_t faultSeeds = 0;
    uint64_t scenarioSeeds = 0;
    uint64_t scenarioFaultSeeds = 0;
    uint64_t startSeed = 1;
    std::string corpusDir = "iracc-diff-repros";
    std::string emitScenarioCorpus;
    bool kernelOnly = false;
    bool pipelineOnly = false;
    uint64_t pipelineEvery = 10;
    bool minimize = true;
    bool stream = true;
    uint32_t cards = 1;
    bool stealing = true;
    std::vector<ScenarioProfile> profiles = allScenarioProfiles();
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --seeds N           seeds to fuzz (default 20)\n"
        "  --fault-seeds N     additional seeds fuzzing the\n"
        "                      hardened path under random fault\n"
        "                      plans (default 0)\n"
        "  --start-seed S      first seed (default 1)\n"
        "  --corpus DIR        where minimized repros are written\n"
        "                      (default iracc-diff-repros)\n"
        "  --pipeline-every K  run the full-pipeline differential\n"
        "                      on every K'th seed (default 10)\n"
        "  --kernel-only       skip the pipeline differential\n"
        "  --pipeline-only     skip the kernel differential\n"
        "  --no-stream         skip the streaming-ingest\n"
        "                      differential on pipeline seeds\n"
        "  --scenario-seeds N  seeds fuzzing the hostile-workload\n"
        "                      scenario profiles (default 0)\n"
        "  --scenario-fault-seeds N\n"
        "                      seeds soaking the scenario profiles\n"
        "                      through the hardened path under\n"
        "                      random fault plans (default 0)\n"
        "  --scenario NAME     restrict scenario runs to one\n"
        "                      profile (long-read, sv-dense,\n"
        "                      low-complexity, tumor-normal,\n"
        "                      contaminated)\n"
        "  --emit-scenario-corpus DIR\n"
        "                      write one compact verified corpus\n"
        "                      case per profile into DIR and exit\n"
        "  --no-minimize       emit repros without minimizing\n"
        "  --cards N           run the fault differential's\n"
        "                      hardened subject on an N-card fleet\n"
        "                      (default 1)\n"
        "  --no-stealing       disable cross-card work stealing\n"
        "                      for the fleet subject\n",
        argv0);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usageError("iracc_diff: missing value for %s",
                           arg.c_str());
            }
            return argv[++i];
        };
        // Strict numeric parsing (util/argparse): malformed or
        // out-of-range values are usage errors (exit 2), not the
        // silent zeros strtoull used to produce.
        auto uintValue = [&](uint64_t min_v,
                             uint64_t max_v) -> uint64_t {
            std::string text = value();
            uint64_t v = 0;
            if (!parseUint64(text, &v) || v < min_v || v > max_v) {
                usageError("iracc_diff: %s expects an integer in "
                           "[%llu, %llu], got '%s'",
                           arg.c_str(),
                           static_cast<unsigned long long>(min_v),
                           static_cast<unsigned long long>(max_v),
                           text.c_str());
            }
            return v;
        };
        if (arg == "--seeds") {
            opt.seeds = uintValue(0, 100000000);
        } else if (arg == "--fault-seeds") {
            opt.faultSeeds = uintValue(0, 100000000);
        } else if (arg == "--start-seed") {
            opt.startSeed =
                uintValue(0, std::numeric_limits<uint64_t>::max());
        } else if (arg == "--corpus") {
            opt.corpusDir = value();
        } else if (arg == "--pipeline-every") {
            opt.pipelineEvery = uintValue(1, 100000000);
        } else if (arg == "--kernel-only") {
            opt.kernelOnly = true;
        } else if (arg == "--pipeline-only") {
            opt.pipelineOnly = true;
        } else if (arg == "--no-stream") {
            opt.stream = false;
        } else if (arg == "--scenario-seeds") {
            opt.scenarioSeeds = uintValue(0, 100000000);
        } else if (arg == "--scenario-fault-seeds") {
            opt.scenarioFaultSeeds = uintValue(0, 100000000);
        } else if (arg == "--scenario") {
            std::string name = value();
            ScenarioProfile profile;
            if (!parseScenario(name, &profile)) {
                usageError("iracc_diff: unknown scenario profile "
                           "'%s'", name.c_str());
            }
            opt.profiles = {profile};
        } else if (arg == "--emit-scenario-corpus") {
            opt.emitScenarioCorpus = value();
        } else if (arg == "--no-minimize") {
            opt.minimize = false;
        } else if (arg == "--cards") {
            opt.cards = static_cast<uint32_t>(uintValue(1, 64));
        } else if (arg == "--no-stealing") {
            opt.stealing = false;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            std::exit(0);
        } else {
            usage(argv[0]);
            usageError("iracc_diff: unknown option '%s'",
                       arg.c_str());
        }
    }
    return opt;
}

/** Bundle directory derived from a repro case path:
 *  repro-foo.case -> repro-foo-postmortem/ right beside it. */
std::string
bundleDirFor(const std::string &case_path)
{
    std::string dir = case_path;
    if (dir.size() > 5 &&
        dir.compare(dir.size() - 5, 5, ".case") == 0)
        dir.resize(dir.size() - 5);
    return dir + "-postmortem";
}

/**
 * Re-run a minimized repro through @p backend with the flight
 * recorder freshly cleared and write a post-mortem bundle next to
 * the repro case: the canonical event log of the failing run
 * ships with the case (render it with iracc_postmortem).
 */
void
writeReproBundle(std::unique_ptr<const RealignerBackend> backend,
                 const std::string &case_path,
                 const ReproCase &repro)
{
    obs::FlightRecorder::instance().clear();
    RealignJobConfig cfg;
    cfg.postmortemDir = bundleDirFor(case_path);
    cfg.postmortemAlways = true; // the mismatch was vs another
                                 // backend, not necessarily a
                                 // Degraded run
    RealignSession session(std::move(backend), cfg);
    std::vector<Read> reads = repro.reads;
    RealignJobResult job = session.run(repro.reference, reads);
    std::fprintf(stderr,
                 "  post-mortem bundle written to %s (render with "
                 "iracc_postmortem)\n",
                 job.postmortemPath.c_str());
}

/** Capture, minimize, and persist one kernel mismatch. */
void
reportKernelMismatch(const Options &opt, uint64_t seed,
                     size_t input_index, const DiffResult &result)
{
    std::fprintf(stderr,
                 "MISMATCH (kernel) seed %llu [%s]: %s\n",
                 static_cast<unsigned long long>(seed),
                 result.variant.c_str(), result.detail.c_str());
    ReproCase repro;
    repro.kind = "kernel";
    repro.seed = seed;
    repro.variant = result.variant;
    repro.detail = result.detail;
    repro.target = makeKernelInputs(seed)[input_index];
    if (opt.minimize) {
        repro.target =
            minimizeKernelInput(repro.target, diffKernelInput);
    }
    std::string path = saveReproCase(repro, opt.corpusDir);
    std::fprintf(stderr, "  repro written to %s\n", path.c_str());
}

/** Capture, minimize, and persist one pipeline mismatch. */
void
reportPipelineMismatch(const Options &opt, uint64_t seed,
                       const DiffResult &result)
{
    std::fprintf(stderr,
                 "MISMATCH (pipeline) seed %llu [%s]: %s\n",
                 static_cast<unsigned long long>(seed),
                 result.variant.c_str(), result.detail.c_str());
    GenomeWorkload workload = makeDiffGenome(seed);
    ReproCase repro;
    repro.kind = "pipeline";
    repro.seed = seed;
    repro.variant = result.variant;
    repro.detail = result.detail;
    repro.reference = workload.reference;
    repro.reads = workload.allReads();
    if (opt.minimize) {
        repro.reads = minimizeReads(
            repro.reference, std::move(repro.reads),
            [](const ReferenceGenome &ref,
               const std::vector<Read> &reads) {
                return diffPipeline(ref, reads);
            });
    }
    std::string path = saveReproCase(repro, opt.corpusDir);
    std::fprintf(stderr, "  repro written to %s\n", path.c_str());
    writeReproBundle(
        makeAcceleratedBackend(
            "diff-pipeline-repro", "pipeline repro post-mortem run",
            AccelConfig::paperOptimized(),
            SchedulePolicy::AsynchronousParallel),
        path, repro);
}

/** Capture, minimize, and persist one streaming-ingest mismatch. */
void
reportStreamMismatch(const Options &opt, uint64_t seed,
                     const DiffResult &result)
{
    std::fprintf(stderr,
                 "MISMATCH (stream) seed %llu [%s]: %s\n",
                 static_cast<unsigned long long>(seed),
                 result.variant.c_str(), result.detail.c_str());
    GenomeWorkload workload = makeDiffGenome(seed);
    ReproCase repro;
    repro.kind = "pipeline";
    repro.seed = seed;
    repro.variant = result.variant;
    repro.detail = "streaming ingest: " + result.detail;
    repro.reference = workload.reference;
    repro.reads = workload.allReads();
    if (opt.minimize) {
        repro.reads = minimizeReads(
            repro.reference, std::move(repro.reads),
            [](const ReferenceGenome &ref,
               const std::vector<Read> &reads) {
                return diffStreamingIngest(ref, reads);
            });
    }
    std::string path = saveReproCase(repro, opt.corpusDir);
    std::fprintf(stderr, "  repro written to %s\n", path.c_str());
}

/** Capture, minimize, and persist one scenario mismatch. */
void
reportScenarioMismatch(const Options &opt, ScenarioProfile profile,
                       uint64_t seed, const DiffResult &result,
                       bool fault)
{
    std::fprintf(stderr,
                 "MISMATCH (scenario %s%s) seed %llu [%s]: %s\n",
                 scenarioName(profile), fault ? "/fault" : "",
                 static_cast<unsigned long long>(seed),
                 result.variant.c_str(), result.detail.c_str());
    ScenarioWorkload wl = makeScenarioWorkload(profile, seed);
    FaultPlan plan = FaultPlan::random(seed);
    ReproCase repro;
    repro.kind = fault ? "fault" : "pipeline";
    repro.seed = seed;
    repro.variant = result.variant;
    repro.detail = std::string("scenario ") + scenarioName(profile) +
                   ": " + result.detail;
    if (fault)
        repro.faultPlan = plan.describe();
    repro.reference = wl.reference;
    repro.reads = std::move(wl.reads);
    if (opt.minimize) {
        repro.reads = minimizeReads(
            repro.reference, std::move(repro.reads),
            [&](const ReferenceGenome &ref,
                const std::vector<Read> &reads) {
                return fault ? diffFaultPlan(ref, reads, plan,
                                             opt.cards, opt.stealing)
                             : diffPipeline(ref, reads);
            });
    }
    std::string path = saveReproCase(repro, opt.corpusDir);
    std::fprintf(stderr, "  repro written to %s\n", path.c_str());
}

/**
 * Emit one compact corpus case per scenario profile: the committed
 * tests/corpus/ seed set.  Each case is verified to pass the full
 * pipeline + streaming differential before it is written, so a
 * fresh checkout replays green.
 */
int
emitScenarioCorpus(const Options &opt)
{
    int failures = 0;
    for (ScenarioProfile profile : opt.profiles) {
        ScenarioWorkload wl =
            makeScenarioWorkload(profile, opt.startSeed, true);
        DiffResult r = diffPipeline(wl.reference, wl.reads);
        if (r.ok)
            r = diffStreamingIngest(wl.reference, wl.reads);
        if (!r.ok) {
            std::fprintf(stderr,
                         "scenario %s seed %llu FAILS [%s]: %s\n",
                         scenarioName(profile),
                         static_cast<unsigned long long>(
                             opt.startSeed),
                         r.variant.c_str(), r.detail.c_str());
            ++failures;
            continue;
        }
        ReproCase repro;
        repro.kind = "pipeline";
        repro.seed = opt.startSeed;
        repro.variant = std::string("scenario/") +
                        scenarioName(profile);
        repro.detail = std::string("scenario profile '") +
                       scenarioName(profile) +
                       "' regression anchor (compact workload, "
                       "passes all design points at capture time)";
        repro.reference = wl.reference;
        repro.reads = std::move(wl.reads);
        std::string path =
            saveReproCase(repro, opt.emitScenarioCorpus);
        std::fprintf(stderr, "scenario %-15s -> %s (%zu reads)\n",
                     scenarioName(profile), path.c_str(),
                     repro.reads.size());
    }
    return failures == 0 ? 0 : 1;
}

/** Capture, minimize, and persist one fault-plan mismatch. */
void
reportFaultMismatch(const Options &opt, uint64_t seed,
                    const DiffResult &result)
{
    std::fprintf(stderr, "MISMATCH (fault) seed %llu [%s]: %s\n",
                 static_cast<unsigned long long>(seed),
                 result.variant.c_str(), result.detail.c_str());
    GenomeWorkload workload = makeDiffGenome(seed);
    FaultPlan plan = FaultPlan::random(seed);
    ReproCase repro;
    repro.kind = "fault";
    repro.seed = seed;
    repro.variant = result.variant;
    repro.detail = result.detail;
    repro.faultPlan = plan.describe();
    repro.reference = workload.reference;
    repro.reads = workload.allReads();
    if (opt.minimize) {
        // The plan is held fixed while reads shrink: occurrence
        // counting stays meaningful because every candidate replays
        // the same schedule against its (smaller) event stream.
        repro.reads = minimizeReads(
            repro.reference, std::move(repro.reads),
            [&plan, &opt](const ReferenceGenome &ref,
                          const std::vector<Read> &reads) {
                return diffFaultPlan(ref, reads, plan, opt.cards,
                                     opt.stealing);
            });
    }
    std::string path = saveReproCase(repro, opt.corpusDir);
    std::fprintf(stderr, "  repro written to %s\n", path.c_str());

    FleetConfig fleet =
        FleetConfig::singleCard(AccelConfig::paperOptimized());
    fleet.cards = opt.cards;
    fleet.stealing = opt.stealing;
    fleet.cardPlans = {plan};
    writeReproBundle(
        makeHardenedBackend("diff-fault-repro",
                            "fault repro post-mortem run",
                            std::move(fleet)),
        path, repro);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    if (!opt.emitScenarioCorpus.empty())
        return emitScenarioCorpus(opt);

    uint64_t kernel_targets = 0;
    uint64_t pipeline_runs = 0;
    uint64_t stream_runs = 0;
    uint64_t fault_runs = 0;
    uint64_t scenario_runs = 0;
    uint64_t mismatches = 0;

    for (uint64_t n = 0; n < opt.seeds; ++n) {
        uint64_t seed = opt.startSeed + n;
        if (!opt.pipelineOnly) {
            size_t failed_index = 0;
            DiffResult r = diffKernelSeed(seed, &failed_index);
            kernel_targets += makeKernelInputs(seed).size();
            if (!r.ok) {
                ++mismatches;
                reportKernelMismatch(opt, seed, failed_index, r);
            }
        }
        if (!opt.kernelOnly && n % opt.pipelineEvery == 0) {
            DiffResult r = diffPipelineSeed(seed);
            ++pipeline_runs;
            if (!r.ok) {
                ++mismatches;
                reportPipelineMismatch(opt, seed, r);
            }
            if (opt.stream) {
                DiffResult s = diffStreamingIngestSeed(seed);
                ++stream_runs;
                if (!s.ok) {
                    ++mismatches;
                    reportStreamMismatch(opt, seed, s);
                }
            }
        }
        if ((n + 1) % 50 == 0) {
            std::fprintf(stderr,
                         "... %llu/%llu seeds, %llu mismatches\n",
                         static_cast<unsigned long long>(n + 1),
                         static_cast<unsigned long long>(opt.seeds),
                         static_cast<unsigned long long>(
                             mismatches));
        }
    }

    for (uint64_t n = 0; n < opt.faultSeeds; ++n) {
        uint64_t seed = opt.startSeed + n;
        DiffResult r = diffFaultSeed(seed, opt.cards, opt.stealing);
        ++fault_runs;
        if (!r.ok) {
            ++mismatches;
            reportFaultMismatch(opt, seed, r);
        }
        if ((n + 1) % 25 == 0) {
            std::fprintf(
                stderr,
                "... %llu/%llu fault seeds, %llu mismatches\n",
                static_cast<unsigned long long>(n + 1),
                static_cast<unsigned long long>(opt.faultSeeds),
                static_cast<unsigned long long>(mismatches));
        }
    }

    for (uint64_t n = 0; n < opt.scenarioSeeds; ++n) {
        uint64_t seed = opt.startSeed + n;
        for (ScenarioProfile profile : opt.profiles) {
            DiffResult r = diffScenarioSeed(profile, seed);
            ++scenario_runs;
            if (!r.ok) {
                ++mismatches;
                reportScenarioMismatch(opt, profile, seed, r, false);
            }
        }
        if ((n + 1) % 10 == 0) {
            std::fprintf(
                stderr,
                "... %llu/%llu scenario seeds, %llu mismatches\n",
                static_cast<unsigned long long>(n + 1),
                static_cast<unsigned long long>(opt.scenarioSeeds),
                static_cast<unsigned long long>(mismatches));
        }
    }

    for (uint64_t n = 0; n < opt.scenarioFaultSeeds; ++n) {
        uint64_t seed = opt.startSeed + n;
        for (ScenarioProfile profile : opt.profiles) {
            DiffResult r = diffScenarioFaultSeed(
                profile, seed, opt.cards, opt.stealing);
            ++scenario_runs;
            if (!r.ok) {
                ++mismatches;
                reportScenarioMismatch(opt, profile, seed, r, true);
            }
        }
        if ((n + 1) % 10 == 0) {
            std::fprintf(stderr,
                         "... %llu/%llu scenario fault seeds, %llu "
                         "mismatches\n",
                         static_cast<unsigned long long>(n + 1),
                         static_cast<unsigned long long>(
                             opt.scenarioFaultSeeds),
                         static_cast<unsigned long long>(
                             mismatches));
        }
    }

    size_t variants = differentialVariants().size();
    std::printf(
        "iracc_diff: %llu seeds (%llu kernel targets, %llu pipeline "
        "workloads x %zu variants, %llu streaming checks, %llu "
        "fault plans, %llu scenario runs): %llu mismatches\n",
        static_cast<unsigned long long>(opt.seeds),
        static_cast<unsigned long long>(kernel_targets),
        static_cast<unsigned long long>(pipeline_runs), variants,
        static_cast<unsigned long long>(stream_runs),
        static_cast<unsigned long long>(fault_runs),
        static_cast<unsigned long long>(scenario_runs),
        static_cast<unsigned long long>(mismatches));
    return mismatches == 0 ? 0 : 1;
}
