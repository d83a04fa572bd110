/**
 * @file
 * The staged realignment pipeline: the per-contig flow decomposed
 * into four named, reusable stages shared by every realignment
 * backend (software baselines and the accelerated system):
 *
 *   Plan     target creation + read claiming (no mutation)
 *   Prepare  consensus generation + accelerator marshalling
 *   Execute  the WHD kernel (software threads here; the FPGA
 *            scheduler in src/host runs the same stage contract)
 *   Apply    decision writeback + statistics merge
 *
 * The stages operate on plain data (ContigPlan, PreparedContig,
 * ConsensusDecision vectors), so the software and accelerated
 * paths differ only in how Execute fills the decision vector --
 * which is what preserves the bit-equality guarantee the
 * integration tests assert.  The genome-level RealignJob engine
 * (src/core/realign_job.hh) drives whole contigs through these
 * stages concurrently.
 */

#ifndef IRACC_REALIGN_STAGES_HH
#define IRACC_REALIGN_STAGES_HH

#include <cstdint>
#include <vector>

#include "genomics/read.hh"
#include "genomics/reference.hh"
#include "realign/consensus.hh"
#include "realign/marshal.hh"
#include "realign/score.hh"
#include "realign/target.hh"
#include "realign/whd.hh"

namespace iracc {

/**
 * Base seed for the deterministic per-contig / per-target RNG
 * streams of the realignment pipeline (see Rng::stream).  Every
 * layer defaults to the same constant so serial and job-parallel
 * runs draw identical streams.
 */
constexpr uint64_t kRealignStreamSeed = 0x5EEDC0DEADA12878ull;

/**
 * Plan-stage output for one contig: targets plus, per target, the
 * claimed read indices (into the caller's read set).  Each read is
 * claimed by at most one target so targets stay independent.
 */
struct ContigPlan
{
    int32_t contig = 0;
    std::vector<IrTarget> targets;
    std::vector<std::vector<uint32_t>> readsPerTarget;
};

/**
 * Plan stage: create targets and claim reads on one contig.
 *
 * @param candidates optional pre-partitioned subset of read
 *        indices that target creation and claiming scan (the
 *        RealignJob engine partitions the genome-wide read set by
 *        contig once and passes each contig its slice); nullptr =
 *        scan all reads.  It must include every read on @p contig;
 *        it then yields the same plan as the full scan, since
 *        reads on other contigs are never claimed.
 */
ContigPlan planStage(const ReferenceGenome &ref, int32_t contig,
                     const std::vector<Read> &reads,
                     const TargetCreationParams &params = {},
                     const std::vector<uint32_t> *candidates = nullptr);

/**
 * Prepare-stage output: dense per-target inputs (consensuses
 * generated) for every non-empty planned target, plus -- for
 * accelerated Execute stages -- the DMA-able byte images.
 */
struct PreparedContig
{
    int32_t contig = 0;

    /** Target inputs, one per non-empty planned target. */
    std::vector<IrTargetInput> inputs;

    /** Byte-marshalled images, parallel to inputs (empty unless
     *  the Execute stage asked for marshalling). */
    std::vector<MarshalledTarget> marshalled;
};

/**
 * Prepare stage: build (and optionally marshal) the input of every
 * non-empty planned target.
 *
 * @param marshal also produce the accelerator byte images
 * @param threads worker threads for input assembly (deterministic:
 *        each target writes its own preallocated slot)
 */
PreparedContig prepareStage(const ReferenceGenome &ref,
                            const std::vector<Read> &reads,
                            const ContigPlan &plan, bool marshal,
                            uint32_t threads = 1);

/** Parameters of the software Execute stage (the WHD kernel). */
struct SoftwareExecuteParams
{
    /** Enable computation pruning in the WHD kernel. */
    bool prune = false;

    /** Worker threads (1 = fully serial). */
    uint32_t threads = 1;

    /** JVM work-model multiplier (see SoftwareRealignerConfig). */
    double workAmplification = 1.0;

    /**
     * Seed of the per-target RNG streams that pick which targets
     * the fractional work amplification re-runs.  Streams are
     * derived per (contig, target index), so the choice -- and
     * with it every statistic -- is identical regardless of
     * thread count and of whether contigs run serially or inside
     * a parallel RealignJob.
     */
    uint64_t rngSeed = kRealignStreamSeed;
};

/**
 * Software Execute stage: run the WHD kernel (Algorithm 1) and
 * consensus selection (Algorithm 2) over every prepared target.
 *
 * @param whd optional accumulator for kernel work counters;
 *        merged in target order, so the totals are independent of
 *        the thread count.
 * @return one decision per prepared input, index-aligned
 */
std::vector<ConsensusDecision> executeStageSoftware(
    const PreparedContig &prepared,
    const SoftwareExecuteParams &params, WhdStats *whd = nullptr);

/** Aggregate statistics from realigning one or more contigs. */
struct RealignStats
{
    uint64_t targets = 0;
    uint64_t readsConsidered = 0;
    uint64_t readsRealigned = 0;
    uint64_t consensusesEvaluated = 0;
    WhdStats whd;

    void
    merge(const RealignStats &o)
    {
        targets += o.targets;
        readsConsidered += o.readsConsidered;
        readsRealigned += o.readsRealigned;
        consensusesEvaluated += o.consensusesEvaluated;
        whd.merge(o.whd);
    }
};

/**
 * Apply stage: write every realignment decision back into the
 * caller's read set and assemble the contig's statistics
 * (targets, reads considered/realigned, consensuses evaluated;
 * the caller merges kernel WhdStats from its Execute stage).
 */
RealignStats applyStage(const PreparedContig &prepared,
                        const std::vector<ConsensusDecision> &decisions,
                        std::vector<Read> &reads);

} // namespace iracc

#endif // IRACC_REALIGN_STAGES_HH
