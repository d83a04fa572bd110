/**
 * @file
 * Cross-backend differential checks: every registered backend
 * design point must produce bit-identical results on the same
 * workload.
 *
 * Kernel level, one IrTargetInput at a time:
 *   - software minWhd with pruning == without pruning (grid and
 *     offsets bit-equal), counters satisfy
 *     comparisons <= comparisonsUnpruned;
 *   - scoreAndSelect never picks a consensus with no feasible
 *     placement; degenerate targets are no-ops;
 *   - the accelerator datapath model (irCompute) at widths {1, 32}
 *     x pruning {off, on} matches the software decision exactly
 *     (picked consensus, realign flags, new positions);
 *   - at scalar width the datapath's WhdStats equal the software
 *     kernel's bit for bit;
 *   - the pruned target sweep (sweepTarget) under every kernel at
 *     pruneChunk {1, 7, 8, 32} equals the per-pair scalar loop: grid,
 *     WhdStats, chunks, pairs, and irCompute's cycles;
 *   - inputs that violate the architectural limits are rejected
 *     with a clean limitViolation() diagnostic (never marshalled).
 *
 * Pipeline level, one genome workload at a time: every
 * differentialVariants() design point ({software, accelerated} x
 * {prune off, on} x job threads) realigns a copy of the same read
 * set; realigned alignments (position + CIGAR per read), realign
 * statistics, and downstream variant calls must all equal the
 * oracle's (the unpruned single-job software variant).
 *
 * Fault level, one genome workload plus one FaultPlan at a time:
 * a hardened backend (the dispatcher's recovery hooks on,
 * host/scheduler.hh) realigns under injected hardware faults and
 * must still produce the plain accelerated backend's bit-exact
 * output -- recovery may fire (that is the point) but results must
 * not change.  With an empty plan the hooks themselves must be
 * invisible: bit-identical output and modeled timing, and not a
 * single recovery counter ticking.
 *
 * On mismatch the harness minimizes: greedy removal of contigs,
 * then read chunks (pipeline) or reads/consensuses (kernel) while
 * the divergence persists, producing the small repro the corpus
 * stores (see testing/corpus.hh).
 */

#ifndef IRACC_TESTING_DIFFERENTIAL_HH
#define IRACC_TESTING_DIFFERENTIAL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/realign_job.hh"
#include "core/realigner_api.hh"
#include "fault/fault.hh"
#include "genomics/read.hh"
#include "genomics/reference.hh"
#include "realign/consensus.hh"
#include "testing/workload_gen.hh"

namespace iracc {
namespace difftest {

/** Outcome of one differential check. */
struct DiffResult
{
    bool ok = true;

    /** Design point that diverged (empty when ok). */
    std::string variant;

    /** Human-readable description of the first divergence. */
    std::string detail;

    static DiffResult
    fail(std::string variant, std::string detail)
    {
        DiffResult r;
        r.ok = false;
        r.variant = std::move(variant);
        r.detail = std::move(detail);
        return r;
    }
};

/** Kernel-level differential over one target input. */
DiffResult diffKernelInput(const IrTargetInput &input);

/** One target swept pair by pair (see sweepPairsScalar). */
struct PairSweep
{
    MinWhdGrid grid{0, 0};
    WhdStats stats;
    WhdTargetSweep work;
};

/**
 * The reference of sweepTarget(): every feasible (consensus, read)
 * pair swept whole by the scalar kernel, nothing shared between
 * consensuses, so stats.offsetsSwept == stats.offsetsEvaluated.
 */
PairSweep sweepPairsScalar(const IrTargetInput &input, bool prune,
                           uint32_t pruneChunk);

/**
 * Pruned sweepTarget() under every supported kernel at pruneChunk
 * {1, 7, 8, 32} against sweepPairsScalar: grid,
 * every WhdStats counter but offsetsSwept (which must agree across
 * kernels and widths instead), chunks and pairs.  Within the
 * architectural limits, irCompute's hdcCycles at each width must
 * also equal the cycle formula over the per-pair loop.
 */
DiffResult diffTargetSweep(const IrTargetInput &input);

/**
 * Kernel-level differential over every generated input of a seed.
 * On failure, @p failed_index (if non-null) receives the index of
 * the first diverging input within makeKernelInputs(seed).
 */
DiffResult diffKernelSeed(uint64_t seed,
                          size_t *failed_index = nullptr);

/**
 * Pipeline-level differential: realign a copy of @p reads with
 * every variant and compare alignments, statistics, and variant
 * calls against the first variant (the oracle).
 */
DiffResult diffPipeline(
    const ReferenceGenome &ref, const std::vector<Read> &reads,
    const std::vector<BackendVariant> &variants =
        differentialVariants());

/** Pipeline differential over the generated genome of a seed. */
DiffResult diffPipelineSeed(uint64_t seed);

/** One pipeline run's complete observable outcome. */
struct PipelineOutcome
{
    std::vector<std::string> alignments; ///< per read, input order
    RealignStats stats;
    std::vector<std::string> calls;      ///< variant calls, genome order

    /** Hardened-path health (zero / Ok for plain backends). */
    RecoveryStats recovery;
    RunStatus status = RunStatus::Ok;

    /** Per-contig results, ascending contig order: the modeled
     *  timing (fleet rows, FPGA seconds, latency histograms). */
    std::vector<ContigJobResult> contigs;
};

/**
 * Run one backend over a genome workload (a private copy of
 * @p reads) and capture everything a differential can compare.
 */
PipelineOutcome runBackendPipeline(
    std::unique_ptr<const RealignerBackend> backend,
    uint32_t job_threads, const ReferenceGenome &ref,
    std::vector<Read> reads);

/**
 * Hardened-path transparency property: with an empty FaultPlan the
 * recovery hooks must be invisible on every accelerated design
 * point of @p variants, plus the synchronous-policy registry
 * backend "iracc-taskp" -- same alignments, same statistics
 * (WhdStats bit for bit), same variant calls, RunStatus::Ok, every
 * recovery counter zero, and the same modeled timing: per contig,
 * the makespan, FPGA seconds, every fleet row (targets, shards,
 * steals, migrations, busy cycles) and both target-latency
 * histograms, exactly.
 */
DiffResult diffHardenedPipeline(
    const ReferenceGenome &ref, const std::vector<Read> &reads,
    const std::vector<BackendVariant> &variants =
        differentialVariants());

/**
 * Fault differential: realign through the hardened path with
 * @p plan attached to the simulator's fault hooks and compare bit
 * for bit against the plain accelerated backend's fault-free run.
 * The default HardenPolicy must absorb every injectable fault, so
 * a run that reports RunStatus::Failed is itself a divergence.
 * With @p cards > 1 the hardened subject runs on a multi-card
 * fleet (@p plan attached to card 0), exercising card-granular
 * containment and migration under the same bit-exactness bar.
 */
DiffResult diffFaultPlan(const ReferenceGenome &ref,
                         const std::vector<Read> &reads,
                         const FaultPlan &plan, uint32_t cards = 1,
                         bool stealing = true);

/**
 * Fault differential over the generated genome of a seed under
 * FaultPlan::random(seed) (tools/iracc_diff --fault-seeds).
 */
DiffResult diffFaultSeed(uint64_t seed, uint32_t cards = 1,
                         bool stealing = true);

/**
 * Scenario differential: the full cross-backend pipeline check
 * (every differentialVariants design point) plus the hardened
 * fault-free transparency check, over one hostile-workload
 * scenario profile (workload_gen.hh).  This is what makes each
 * profile a named design point of the harness
 * (tools/iracc_diff --scenario-seeds).
 */
DiffResult diffScenarioSeed(ScenarioProfile profile, uint64_t seed);

/**
 * Scenario fault soak: realign one scenario workload through the
 * hardened path under FaultPlan::random(seed) and require the
 * plain accelerated backend's bit-exact output
 * (tools/iracc_diff --scenario-fault-seeds).
 */
DiffResult diffScenarioFaultSeed(ScenarioProfile profile,
                                 uint64_t seed, uint32_t cards = 1,
                                 bool stealing = true);

/**
 * Streaming-ingest differential: serialize @p reads as SAM-lite,
 * realign them again through SamLiteBatchSource +
 * RealignSession::runStreamed, and require byte-identical SAM-lite
 * output and a fully identical RealignStats against the in-memory
 * run of the same design point -- for every variant in
 * @p variants (the default matrix spans 1 and 4 job threads).
 * This is the executable form of the streaming bit-equality
 * contract (docs/TESTING.md).
 */
DiffResult diffStreamingIngest(
    const ReferenceGenome &ref, const std::vector<Read> &reads,
    const std::vector<BackendVariant> &variants =
        differentialVariants());

/** Streaming-ingest differential over the genome of a seed. */
DiffResult diffStreamingIngestSeed(uint64_t seed);

/**
 * Greedy repro minimization for a pipeline mismatch: drop whole
 * contigs, then binary-shrinking read chunks, then single reads,
 * keeping each removal only while @p check still reports a
 * mismatch.  @return the minimized read set (the input set when it
 * no longer fails).
 */
std::vector<Read> minimizeReads(
    const ReferenceGenome &ref, std::vector<Read> reads,
    const std::function<DiffResult(const ReferenceGenome &,
                                   const std::vector<Read> &)> &check);

/**
 * Greedy repro minimization for a kernel mismatch: drop reads and
 * non-reference consensuses one at a time while @p check keeps
 * failing.
 */
IrTargetInput minimizeKernelInput(
    IrTargetInput input,
    const std::function<DiffResult(const IrTargetInput &)> &check);

} // namespace difftest
} // namespace iracc

#endif // IRACC_TESTING_DIFFERENTIAL_HH
