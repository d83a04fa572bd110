#include "testing/differential.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <set>
#include <sstream>

#include "accel/ir_compute.hh"
#include "core/realign_job.hh"
#include "genomics/io.hh"
#include "realign/marshal.hh"
#include "realign/score.hh"
#include "realign/whd.hh"
#include "realign/whd_simd.hh"
#include "testing/workload_gen.hh"
#include "util/logging.hh"
#include "variant/caller.hh"

namespace iracc {
namespace difftest {

namespace {

std::string
fmt(const char *format, ...)
{
    char buf[256];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof(buf), format, args);
    va_end(args);
    return std::string(buf);
}

bool
statsEqual(const WhdStats &a, const WhdStats &b)
{
    return a.comparisons == b.comparisons &&
           a.comparisonsUnpruned == b.comparisonsUnpruned &&
           a.offsetsEvaluated == b.offsetsEvaluated &&
           a.offsetsPruned == b.offsetsPruned &&
           a.offsetsSwept == b.offsetsSwept;
}

std::string
statsString(const WhdStats &s)
{
    return fmt("cmp=%llu unpruned=%llu offsets=%llu pruned=%llu "
               "swept=%llu",
               static_cast<unsigned long long>(s.comparisons),
               static_cast<unsigned long long>(s.comparisonsUnpruned),
               static_cast<unsigned long long>(s.offsetsEvaluated),
               static_cast<unsigned long long>(s.offsetsPruned),
               static_cast<unsigned long long>(s.offsetsSwept));
}

/**
 * Semantic sanity of one software decision: a picked consensus must
 * have placement evidence, a fully-infeasible target must be a
 * no-op, and every realigned read must genuinely improve.  These
 * invariants hold independently of any backend comparison, so a bug
 * shared by every backend (which a pure differential is blind to)
 * still fails here.
 */
DiffResult
checkDecisionInvariants(const MinWhdGrid &grid,
                        const ConsensusDecision &want)
{
    const size_t num_cons = grid.numConsensuses();
    const size_t num_reads = grid.numReads();
    if (want.bestConsensus != 0) {
        bool placeable = false;
        for (size_t j = 0; j < num_reads; ++j)
            placeable |= grid.whd(want.bestConsensus, j) !=
                         kWhdInfinity;
        if (!placeable) {
            return DiffResult::fail(
                "software/oracle",
                fmt("picked consensus %u has no feasible placement",
                    want.bestConsensus));
        }
    } else if (want.numRealigned() != 0) {
        return DiffResult::fail(
            "software/oracle",
            fmt("no consensus picked but %u reads realigned",
                want.numRealigned()));
    }
    bool any_alternative = false;
    for (size_t i = 1; i < num_cons; ++i)
        for (size_t j = 0; j < num_reads; ++j)
            any_alternative |= grid.whd(i, j) != kWhdInfinity;
    if (!any_alternative &&
        (want.bestConsensus != 0 || want.numRealigned() != 0)) {
        return DiffResult::fail(
            "software/oracle",
            "degenerate target (no feasible alternative placement) "
            "is not a no-op");
    }
    for (size_t j = 0; j < num_reads; ++j) {
        if (!want.realign[j])
            continue;
        uint32_t ref_whd = grid.whd(0, j);
        uint32_t cur_whd = grid.whd(want.bestConsensus, j);
        if (cur_whd == kWhdInfinity ||
            (ref_whd != kWhdInfinity && cur_whd >= ref_whd)) {
            return DiffResult::fail(
                "software/oracle",
                fmt("read %zu realigned without improvement "
                    "(ref=%u cur=%u)",
                    j, ref_whd, cur_whd));
        }
    }
    return {};
}

PipelineOutcome
runVariant(const BackendVariant &variant, const ReferenceGenome &ref,
           std::vector<Read> reads)
{
    if (!variant.kernel.empty()) {
        SimdKernel kernel;
        panic_if(!parseSimdKernel(variant.kernel, &kernel),
                 "variant '%s' names unknown SIMD kernel '%s'",
                 variant.label.c_str(), variant.kernel.c_str());
        ScopedSimdKernel scope(kernel);
        return runBackendPipeline(makeVariantBackend(variant),
                                  variant.jobThreads, ref,
                                  std::move(reads));
    }
    return runBackendPipeline(makeVariantBackend(variant),
                              variant.jobThreads, ref,
                              std::move(reads));
}

/**
 * Full bitwise comparison of two pipeline outcomes: alignments,
 * every RealignStats scalar including the complete WhdStats, and
 * variant calls.  Used where both runs share one design point
 * (hardened vs plain, faulted vs fault-free), so even the
 * prune-granularity caveat of diffPipeline does not apply.
 */
DiffResult
compareOutcomes(const std::string &label, const PipelineOutcome &got,
                const PipelineOutcome &oracle)
{
    if (got.alignments.size() != oracle.alignments.size()) {
        return DiffResult::fail(
            label, fmt("alignment count %zu vs oracle %zu",
                       got.alignments.size(),
                       oracle.alignments.size()));
    }
    for (size_t j = 0; j < got.alignments.size(); ++j) {
        if (got.alignments[j] != oracle.alignments[j]) {
            return DiffResult::fail(
                label, fmt("read %zu aligned as %s, oracle %s", j,
                           got.alignments[j].c_str(),
                           oracle.alignments[j].c_str()));
        }
    }
    const RealignStats &a = got.stats;
    const RealignStats &b = oracle.stats;
    if (a.targets != b.targets ||
        a.readsConsidered != b.readsConsidered ||
        a.readsRealigned != b.readsRealigned ||
        a.consensusesEvaluated != b.consensusesEvaluated) {
        return DiffResult::fail(
            label,
            fmt("realign stats diverge: targets %llu/%llu "
                "considered %llu/%llu realigned %llu/%llu "
                "consensuses %llu/%llu",
                static_cast<unsigned long long>(a.targets),
                static_cast<unsigned long long>(b.targets),
                static_cast<unsigned long long>(a.readsConsidered),
                static_cast<unsigned long long>(b.readsConsidered),
                static_cast<unsigned long long>(a.readsRealigned),
                static_cast<unsigned long long>(b.readsRealigned),
                static_cast<unsigned long long>(
                    a.consensusesEvaluated),
                static_cast<unsigned long long>(
                    b.consensusesEvaluated)));
    }
    if (!statsEqual(a.whd, b.whd)) {
        return DiffResult::fail(
            label, fmt("WhdStats diverge: %s vs oracle %s",
                       statsString(a.whd).c_str(),
                       statsString(b.whd).c_str()));
    }
    if (got.calls != oracle.calls) {
        size_t n = std::min(got.calls.size(), oracle.calls.size());
        std::string where =
            fmt("call count %zu vs %zu", got.calls.size(),
                oracle.calls.size());
        for (size_t i = 0; i < n; ++i) {
            if (got.calls[i] != oracle.calls[i]) {
                where = fmt("call %zu is %s, oracle %s", i,
                            got.calls[i].c_str(),
                            oracle.calls[i].c_str());
                break;
            }
        }
        return DiffResult::fail(label,
                                "variant calls diverge: " + where);
    }
    return {};
}

} // anonymous namespace

PipelineOutcome
runBackendPipeline(std::unique_ptr<const RealignerBackend> backend,
                   uint32_t job_threads, const ReferenceGenome &ref,
                   std::vector<Read> reads)
{
    RealignJobConfig cfg;
    cfg.threads = job_threads;
    RealignSession session(std::move(backend), cfg);
    RealignJobResult result = session.run(ref, reads);

    PipelineOutcome out;
    out.stats = result.stats;
    out.recovery = result.recovery;
    out.status = result.status;
    out.contigs = std::move(result.contigs);
    out.alignments.reserve(reads.size());
    for (const Read &r : reads) {
        out.alignments.push_back(
            r.name + ":" + std::to_string(r.contig) + ":" +
            std::to_string(r.pos) + ":" + r.cigar.toString());
    }
    for (size_t c = 0; c < ref.numContigs(); ++c) {
        int32_t contig = static_cast<int32_t>(c);
        for (const CalledVariant &v :
             callVariants(ref, reads, contig, 0,
                          ref.contig(contig).length())) {
            std::ostringstream os;
            os << v.contig << ':' << v.pos << ':'
               << static_cast<int>(v.type) << ':' << v.altBase << ':'
               << v.depth;
            char af[40];
            std::snprintf(af, sizeof(af), ":%.17g", v.alleleFraction);
            os << af;
            out.calls.push_back(os.str());
        }
    }
    return out;
}

PairSweep
sweepPairsScalar(const IrTargetInput &input, bool prune,
                 uint32_t pruneChunk)
{
    PairSweep out;
    out.grid.reset(input.numConsensuses(), input.numReads());
    for (size_t i = 0; i < input.numConsensuses(); ++i) {
        const BaseSeq &cons = input.consensuses[i];
        for (size_t j = 0; j < input.numReads(); ++j) {
            const size_t n = input.readBases[j].size();
            if (n > cons.size())
                continue;
            const WhdSweepResult r = whdSweep(
                reinterpret_cast<const uint8_t *>(cons.data()),
                cons.size(),
                reinterpret_cast<const uint8_t *>(
                    input.readBases[j].data()),
                input.readQuals[j].data(), n, prune, pruneChunk,
                SimdKernel::Scalar);
            out.grid.set(i, j, r.best, r.bestK);
            const uint64_t offsets = cons.size() - n + 1;
            out.stats.offsetsEvaluated += offsets;
            out.stats.offsetsSwept += offsets;
            out.stats.comparisonsUnpruned += offsets * n;
            out.stats.comparisons += r.comparisons;
            out.stats.offsetsPruned += r.offsetsPruned;
            out.work.chunks += r.chunks;
            ++out.work.pairs;
        }
    }
    return out;
}

DiffResult
diffTargetSweep(const IrTargetInput &input)
{
    // Pruned only: an unpruned sweepTarget runs pair by pair, and
    // the per-kernel minWhd and irCompute checks cover it.
    const bool marshallable = input.numConsensuses() > 0 &&
                              input.limitViolation().empty();
    MarshalledTarget marshalled;
    if (marshallable)
        marshalled = marshalTarget(input);
    WhdTarget rows;
    rows.load(input);
    // offsetsSwept is the one counter the per-pair loop does not
    // share; it must instead agree across every kernel and width.
    uint64_t swept = 0;
    bool have_swept = false;
    // Width 7 is not a power of two: the lane sweeps' chunk
    // derivation divides by it.
    for (uint32_t chunk : {1u, 7u, 8u, 32u}) {
        const PairSweep want = sweepPairsScalar(input, true, chunk);
        for (SimdKernel kernel : supportedSimdKernels()) {
            const std::string label =
                fmt("target-sweep/kernel=%s/chunk=%u",
                    simdKernelName(kernel), chunk);
            MinWhdGrid grid(0, 0);
            WhdStats stats;
            const WhdTargetSweep work =
                sweepTarget(rows, true, chunk, kernel, grid, stats);
            for (size_t i = 0; i < grid.numConsensuses(); ++i) {
                for (size_t j = 0; j < grid.numReads(); ++j) {
                    if (grid.whd(i, j) == want.grid.whd(i, j) &&
                        grid.idx(i, j) == want.grid.idx(i, j))
                        continue;
                    return DiffResult::fail(
                        label, fmt("(cons %zu, read %zu) min %u at %u, "
                                   "per-pair %u at %u",
                                   i, j, grid.whd(i, j), grid.idx(i, j),
                                   want.grid.whd(i, j),
                                   want.grid.idx(i, j)));
                }
            }
            WhdStats shared = stats;
            shared.offsetsSwept = want.stats.offsetsSwept;
            if (!(grid == want.grid) || !statsEqual(shared, want.stats) ||
                work.chunks != want.work.chunks ||
                work.pairs != want.work.pairs) {
                return DiffResult::fail(
                    label,
                    fmt("work diverges: %s chunks=%llu pairs=%llu vs "
                        "per-pair %s chunks=%llu pairs=%llu",
                        statsString(stats).c_str(),
                        static_cast<unsigned long long>(work.chunks),
                        static_cast<unsigned long long>(work.pairs),
                        statsString(want.stats).c_str(),
                        static_cast<unsigned long long>(
                            want.work.chunks),
                        static_cast<unsigned long long>(
                            want.work.pairs)));
            }
            if (stats.offsetsSwept > stats.offsetsEvaluated ||
                (have_swept && stats.offsetsSwept != swept)) {
                return DiffResult::fail(
                    label,
                    fmt("offsets swept %llu of %llu; other kernels and "
                        "widths swept %llu",
                        static_cast<unsigned long long>(
                            stats.offsetsSwept),
                        static_cast<unsigned long long>(
                            stats.offsetsEvaluated),
                        static_cast<unsigned long long>(swept)));
            }
            swept = stats.offsetsSwept;
            have_swept = true;
        }
        // The datapath's cycles under the ambient kernel; the
        // per-kernel irCompute checks hold the other kernels to it.
        if (marshallable) {
            const IrComputeResult hw = irCompute(marshalled, chunk, true);
            const Cycle cycles = want.stats.offsetsEvaluated +
                                 want.work.chunks + 2 * want.work.pairs;
            if (hw.hdcCycles != cycles) {
                return DiffResult::fail(
                    fmt("accelerated/width=%u/prune=on", chunk),
                    fmt("calculator cycles %llu, per-pair loop %llu",
                        static_cast<unsigned long long>(hw.hdcCycles),
                        static_cast<unsigned long long>(cycles)));
            }
        }
    }
    return {};
}

DiffResult
diffKernelInput(const IrTargetInput &input)
{
    DiffResult shared = diffTargetSweep(input);
    if (!shared.ok)
        return shared;

    // Software kernel: pruning must not change the grid.
    WhdStats stats_noprune, stats_prune;
    MinWhdGrid grid = minWhd(input, false, &stats_noprune);
    MinWhdGrid grid_pruned = minWhd(input, true, &stats_prune);
    if (!(grid == grid_pruned)) {
        return DiffResult::fail("software/prune=on",
                                "pruned min-WHD grid diverges from "
                                "unpruned grid");
    }
    if (stats_noprune.comparisons != stats_noprune.comparisonsUnpruned)
        return DiffResult::fail(
            "software/prune=off",
            fmt("unpruned kernel executed %llu of %llu comparisons",
                static_cast<unsigned long long>(
                    stats_noprune.comparisons),
                static_cast<unsigned long long>(
                    stats_noprune.comparisonsUnpruned)));
    if (stats_prune.comparisons > stats_prune.comparisonsUnpruned)
        return DiffResult::fail(
            "software/prune=on",
            fmt("counter invariant violated: %s",
                statsString(stats_prune).c_str()));

    // Dispatch sweep: every supported WHD kernel implementation
    // must reproduce the ambient kernel's grids AND work counters
    // bit for bit, pruned and unpruned.
    for (SimdKernel kernel : supportedSimdKernels()) {
        ScopedSimdKernel scope(kernel);
        for (bool prune : {false, true}) {
            std::string label =
                fmt("software/kernel=%s/prune=%s",
                    simdKernelName(kernel), prune ? "on" : "off");
            WhdStats stats;
            MinWhdGrid got = minWhd(input, prune, &stats);
            const MinWhdGrid &want_grid =
                prune ? grid_pruned : grid;
            const WhdStats &want_stats =
                prune ? stats_prune : stats_noprune;
            if (!(got == want_grid)) {
                return DiffResult::fail(
                    label, "min-WHD grid diverges from the ambient "
                           "dispatch kernel");
            }
            if (!statsEqual(stats, want_stats)) {
                return DiffResult::fail(
                    label,
                    fmt("WhdStats diverge: %s vs ambient %s",
                        statsString(stats).c_str(),
                        statsString(want_stats).c_str()));
            }
        }
    }

    // Feasible placements must never surface as the infeasible
    // sentinel (WHD accumulation saturates at kWhdMax instead).
    for (size_t i = 0; i < input.numConsensuses(); ++i) {
        for (size_t j = 0; j < input.numReads(); ++j) {
            bool feasible = input.readBases[j].size() <=
                            input.consensuses[i].size();
            if (feasible && grid.whd(i, j) == kWhdInfinity) {
                return DiffResult::fail(
                    "software/prune=off",
                    fmt("feasible pair (cons %zu, read %zu) reported "
                        "as never placed",
                        i, j));
            }
        }
    }

    ConsensusDecision want = scoreAndSelect(grid);
    DiffResult invariants = checkDecisionInvariants(grid, want);
    if (!invariants.ok)
        return invariants;

    // Targets outside the architectural limits stop at the clean
    // rejection boundary; the accelerator never sees them.
    if (!input.limitViolation().empty())
        return {};

    MarshalledTarget marshalled = marshalTarget(input);
    // Byte-image round trip: what the unit reads back out of its
    // block RAMs must be exactly what went in.
    for (uint32_t i = 0; i < marshalled.numConsensuses; ++i) {
        if (marshalled.consensusAt(i) != input.consensuses[i])
            return DiffResult::fail(
                "marshal", fmt("consensus %u image round-trip "
                               "mismatch", i));
    }
    for (uint32_t j = 0; j < marshalled.numReads; ++j) {
        if (marshalled.readAt(j) != input.readBases[j] ||
            marshalled.qualsAt(j) != input.readQuals[j])
            return DiffResult::fail(
                "marshal",
                fmt("read %u image round-trip mismatch", j));
    }

    for (uint32_t width : {1u, 32u}) {
        for (bool prune : {false, true}) {
            std::string label = fmt("accelerated/width=%u/prune=%s",
                                    width, prune ? "on" : "off");
            IrComputeResult hw = irCompute(marshalled, width, prune);
            if (hw.bestConsensus != want.bestConsensus) {
                return DiffResult::fail(
                    label, fmt("picked consensus %u, software "
                               "picked %u",
                               hw.bestConsensus,
                               want.bestConsensus));
            }
            for (size_t j = 0; j < input.numReads(); ++j) {
                bool hw_flag = hw.output.realignFlags[j] != 0;
                bool sw_flag = want.realign[j] != 0;
                if (hw_flag != sw_flag) {
                    return DiffResult::fail(
                        label,
                        fmt("read %zu realign flag %d, software %d",
                            j, hw_flag ? 1 : 0, sw_flag ? 1 : 0));
                }
                uint32_t sw_pos =
                    sw_flag ? want.newOffset[j] +
                                  marshalled.targetStart
                            : 0;
                if (hw.output.newPositions[j] != sw_pos) {
                    return DiffResult::fail(
                        label,
                        fmt("read %zu new position %u, software %u",
                            j, hw.output.newPositions[j], sw_pos));
                }
            }
            // Dispatch sweep on the datapath model: every kernel
            // must agree on outputs, work counters, and the cycle
            // model (hdcCycles folds in the executed chunk count).
            for (SimdKernel kernel : supportedSimdKernels()) {
                ScopedSimdKernel scope(kernel);
                IrComputeResult kk =
                    irCompute(marshalled, width, prune);
                if (kk.bestConsensus != hw.bestConsensus ||
                    kk.output.realignFlags !=
                        hw.output.realignFlags ||
                    kk.output.newPositions !=
                        hw.output.newPositions ||
                    !statsEqual(kk.whd, hw.whd) ||
                    kk.hdcCycles != hw.hdcCycles ||
                    kk.selectorCycles != hw.selectorCycles) {
                    return DiffResult::fail(
                        fmt("%s/kernel=%s", label.c_str(),
                            simdKernelName(kernel)),
                        "datapath results diverge across dispatch "
                        "kernels");
                }
            }
            // At scalar width the datapath's prune granularity is
            // one base, exactly the software kernel's: the work
            // counters must agree bit for bit.
            if (width == 1) {
                const WhdStats &sw =
                    prune ? stats_prune : stats_noprune;
                if (!statsEqual(hw.whd, sw)) {
                    return DiffResult::fail(
                        label,
                        fmt("WhdStats diverge: hw %s, sw %s",
                            statsString(hw.whd).c_str(),
                            statsString(sw).c_str()));
                }
            }
        }
    }
    return {};
}

DiffResult
diffKernelSeed(uint64_t seed, size_t *failed_index)
{
    std::vector<IrTargetInput> inputs = makeKernelInputs(seed);
    for (size_t i = 0; i < inputs.size(); ++i) {
        DiffResult r = diffKernelInput(inputs[i]);
        if (!r.ok) {
            if (failed_index != nullptr)
                *failed_index = i;
            r.detail = fmt("seed %llu input %zu: %s",
                           static_cast<unsigned long long>(seed), i,
                           r.detail.c_str()) ;
            return r;
        }
    }
    return {};
}

DiffResult
diffPipeline(const ReferenceGenome &ref,
             const std::vector<Read> &reads,
             const std::vector<BackendVariant> &variants)
{
    if (variants.empty())
        return {};
    PipelineOutcome oracle = runVariant(variants[0], ref, reads);
    for (size_t v = 1; v < variants.size(); ++v) {
        const BackendVariant &variant = variants[v];
        PipelineOutcome got = runVariant(variant, ref, reads);

        for (size_t j = 0; j < reads.size(); ++j) {
            if (got.alignments[j] != oracle.alignments[j]) {
                return DiffResult::fail(
                    variant.label,
                    fmt("read %zu aligned as %s, oracle %s", j,
                        got.alignments[j].c_str(),
                        oracle.alignments[j].c_str()));
            }
        }
        const RealignStats &a = got.stats;
        const RealignStats &b = oracle.stats;
        if (a.targets != b.targets ||
            a.readsConsidered != b.readsConsidered ||
            a.readsRealigned != b.readsRealigned ||
            a.consensusesEvaluated != b.consensusesEvaluated) {
            return DiffResult::fail(
                variant.label,
                fmt("realign stats diverge: targets %llu/%llu "
                    "considered %llu/%llu realigned %llu/%llu "
                    "consensuses %llu/%llu",
                    static_cast<unsigned long long>(a.targets),
                    static_cast<unsigned long long>(b.targets),
                    static_cast<unsigned long long>(
                        a.readsConsidered),
                    static_cast<unsigned long long>(
                        b.readsConsidered),
                    static_cast<unsigned long long>(
                        a.readsRealigned),
                    static_cast<unsigned long long>(
                        b.readsRealigned),
                    static_cast<unsigned long long>(
                        a.consensusesEvaluated),
                    static_cast<unsigned long long>(
                        b.consensusesEvaluated)));
        }
        // The would-be work is a pure function of the workload; the
        // executed work additionally depends on prune granularity
        // (per base in software, per chunk in hardware), so full
        // counter equality holds only within a (kind, prune) cell.
        if (a.whd.comparisonsUnpruned != b.whd.comparisonsUnpruned ||
            a.whd.offsetsEvaluated != b.whd.offsetsEvaluated) {
            return DiffResult::fail(
                variant.label,
                fmt("unpruned work diverges: %s vs oracle %s",
                    statsString(a.whd).c_str(),
                    statsString(b.whd).c_str()));
        }
        if (a.whd.comparisons > a.whd.comparisonsUnpruned) {
            return DiffResult::fail(
                variant.label,
                fmt("counter invariant violated: %s",
                    statsString(a.whd).c_str()));
        }
        if (!variant.prune && !statsEqual(a.whd, b.whd)) {
            return DiffResult::fail(
                variant.label,
                fmt("unpruned WhdStats diverge: %s vs oracle %s",
                    statsString(a.whd).c_str(),
                    statsString(b.whd).c_str()));
        }
        if (got.calls != oracle.calls) {
            size_t n = std::min(got.calls.size(),
                                oracle.calls.size());
            std::string where = fmt(
                "call count %zu vs %zu", got.calls.size(),
                oracle.calls.size());
            for (size_t i = 0; i < n; ++i) {
                if (got.calls[i] != oracle.calls[i]) {
                    where = fmt("call %zu is %s, oracle %s", i,
                                got.calls[i].c_str(),
                                oracle.calls[i].c_str());
                    break;
                }
            }
            return DiffResult::fail(
                variant.label,
                "variant calls diverge: " + where);
        }
    }
    return {};
}

DiffResult
diffPipelineSeed(uint64_t seed)
{
    GenomeWorkload workload = makeDiffGenome(seed);
    std::vector<Read> reads;
    for (const ChromosomeWorkload &chrom : workload.chromosomes)
        reads.insert(reads.end(), chrom.reads.begin(),
                     chrom.reads.end());
    DiffResult r = diffPipeline(workload.reference, reads);
    if (!r.ok) {
        r.detail = fmt("seed %llu: %s",
                       static_cast<unsigned long long>(seed),
                       r.detail.c_str());
    }
    return r;
}

namespace {

/** Fleet makespan of one contig: its slowest card's final cycle. */
Cycle
contigMakespan(const BackendRunResult &run)
{
    Cycle m = 0;
    for (const FleetCardExecStats &c : run.fleet.cards)
        m = std::max(m, c.busyCycles);
    return m;
}

/**
 * A fault-free hardened run against its plain twin: outputs, a
 * clean bill of health, and the modeled timing bit for bit.
 */
DiffResult
diffHardenedTwin(const std::string &label, const PipelineOutcome &hard,
                 const PipelineOutcome &plain)
{
    DiffResult r = compareOutcomes(label, hard, plain);
    if (!r.ok)
        return r;
    if (hard.status != RunStatus::Ok) {
        return DiffResult::fail(
            label, fmt("fault-free hardened run reports status '%s'",
                       runStatusName(hard.status)));
    }
    const RecoveryStats &rec = hard.recovery;
    if (rec.faultsInjected != 0 || rec.anyRecovery() ||
        rec.retrySuccesses != 0) {
        return DiffResult::fail(
            label,
            fmt("recovery counters ticked on a fault-free run "
                "(injected=%llu retries=%llu fallbacks=%llu)",
                static_cast<unsigned long long>(rec.faultsInjected),
                static_cast<unsigned long long>(rec.retries),
                static_cast<unsigned long long>(
                    rec.softwareFallbacks)));
    }
    if (hard.contigs.size() != plain.contigs.size()) {
        return DiffResult::fail(
            label, fmt("%zu contigs vs %zu plain", hard.contigs.size(),
                       plain.contigs.size()));
    }
    for (size_t i = 0; i < hard.contigs.size(); ++i) {
        const BackendRunResult &h = hard.contigs[i].run;
        const BackendRunResult &p = plain.contigs[i].run;
        const int contig = hard.contigs[i].contig;
        if (contigMakespan(h) != contigMakespan(p) ||
            h.fpgaSeconds != p.fpgaSeconds) {
            return DiffResult::fail(
                label,
                fmt("contig %d modeled time diverges: makespan "
                    "%llu vs %llu plain, fpga %.17g s vs %.17g s",
                    contig,
                    static_cast<unsigned long long>(contigMakespan(h)),
                    static_cast<unsigned long long>(contigMakespan(p)),
                    h.fpgaSeconds, p.fpgaSeconds));
        }
        if (h.fleet.cards.size() != p.fleet.cards.size()) {
            return DiffResult::fail(
                label, fmt("contig %d: %zu fleet rows vs %zu plain",
                           contig, h.fleet.cards.size(),
                           p.fleet.cards.size()));
        }
        for (size_t k = 0; k < h.fleet.cards.size(); ++k) {
            const FleetCardExecStats &a = h.fleet.cards[k];
            const FleetCardExecStats &b = p.fleet.cards[k];
            if (a.card != b.card || a.targets != b.targets ||
                a.shards != b.shards || a.steals != b.steals ||
                a.migrations != b.migrations ||
                a.busyCycles != b.busyCycles) {
                return DiffResult::fail(
                    label,
                    fmt("contig %d card %u: targets/shards/steals/"
                        "busy %llu/%llu/%llu/%llu vs plain "
                        "%llu/%llu/%llu/%llu",
                        contig, a.card,
                        static_cast<unsigned long long>(a.targets),
                        static_cast<unsigned long long>(a.shards),
                        static_cast<unsigned long long>(a.steals),
                        static_cast<unsigned long long>(a.busyCycles),
                        static_cast<unsigned long long>(b.targets),
                        static_cast<unsigned long long>(b.shards),
                        static_cast<unsigned long long>(b.steals),
                        static_cast<unsigned long long>(
                            b.busyCycles)));
            }
        }
        if (!(h.targetLatencyCycles == p.targetLatencyCycles) ||
            !(h.targetLatencyNanos == p.targetLatencyNanos)) {
            return DiffResult::fail(
                label,
                fmt("contig %d target latency diverges: p50 %llu "
                    "vs %llu plain cycles, p99 %llu vs %llu",
                    contig,
                    static_cast<unsigned long long>(
                        h.targetLatencyCycles.p50()),
                    static_cast<unsigned long long>(
                        p.targetLatencyCycles.p50()),
                    static_cast<unsigned long long>(
                        h.targetLatencyCycles.p99()),
                    static_cast<unsigned long long>(
                        p.targetLatencyCycles.p99())));
        }
    }
    return {};
}

} // anonymous namespace

DiffResult
diffHardenedPipeline(const ReferenceGenome &ref,
                     const std::vector<Read> &reads,
                     const std::vector<BackendVariant> &variants)
{
    for (const BackendVariant &variant : variants) {
        // Only accelerated design points have a device to harden.
        if (!variant.accelerated)
            continue;
        PipelineOutcome plain = runVariant(variant, ref, reads);
        BackendVariant twin = variant;
        twin.hardened = true;
        twin.label = variant.label + "/hardened";
        DiffResult r = diffHardenedTwin(
            twin.label, runVariant(twin, ref, reads), plain);
        if (!r.ok)
            return r;
    }
    // The synchronous policy drives the same dispatcher: the
    // iracc-taskp registry backend against its hardened twin.
    return diffHardenedTwin(
        "iracc-taskp/hardened",
        runBackendPipeline(makeHardenedBackend("iracc-taskp", false,
                                               false),
                           1, ref, reads),
        runBackendPipeline(makeBackend("iracc-taskp"), 1, ref,
                           reads));
}

DiffResult
diffFaultPlan(const ReferenceGenome &ref,
              const std::vector<Read> &reads, const FaultPlan &plan,
              uint32_t cards, bool stealing)
{
    // Oracle: the plain accelerated backend, fault-free.  The
    // hardened path's fault-free transparency is asserted
    // separately (diffHardenedPipeline), so comparing the faulted
    // run against the plain backend checks both layers at once.
    PipelineOutcome oracle = runBackendPipeline(
        makeAcceleratedBackend("accelerated/oracle",
                               "fault differential oracle",
                               AccelConfig::paperOptimized(),
                               SchedulePolicy::AsynchronousParallel),
        1, ref, reads);

    std::string label = "hardened[" + plan.describe() + "]";
    if (cards > 1) {
        label += "/cards=" + std::to_string(cards) +
                 "/steal=" + (stealing ? "on" : "off");
    }
    FleetConfig fleet =
        FleetConfig::singleCard(AccelConfig::paperOptimized());
    fleet.cards = cards;
    fleet.stealing = stealing;
    fleet.cardPlans = {plan};
    PipelineOutcome got = runBackendPipeline(
        makeHardenedBackend(label, "fault differential subject",
                            std::move(fleet)),
        1, ref, reads);

    DiffResult r = compareOutcomes(label, got, oracle);
    if (!r.ok)
        return r;
    // The default policy retries and falls back; no injectable
    // fault may surface as an unrecoverable target.
    if (got.status == RunStatus::Failed ||
        got.recovery.failedTargets != 0) {
        return DiffResult::fail(
            label, fmt("%llu targets unrecovered (status '%s')",
                       static_cast<unsigned long long>(
                           got.recovery.failedTargets),
                       runStatusName(got.status)));
    }
    return {};
}

DiffResult
diffFaultSeed(uint64_t seed, uint32_t cards, bool stealing)
{
    GenomeWorkload workload = makeDiffGenome(seed);
    std::vector<Read> reads;
    for (const ChromosomeWorkload &chrom : workload.chromosomes)
        reads.insert(reads.end(), chrom.reads.begin(),
                     chrom.reads.end());
    FaultPlan plan = FaultPlan::random(seed);
    DiffResult r = diffFaultPlan(workload.reference, reads, plan,
                                 cards, stealing);
    if (!r.ok) {
        r.detail = fmt("seed %llu plan '%s': %s",
                       static_cast<unsigned long long>(seed),
                       plan.describe().c_str(), r.detail.c_str());
    }
    return r;
}

DiffResult
diffScenarioSeed(ScenarioProfile profile, uint64_t seed)
{
    ScenarioWorkload wl = makeScenarioWorkload(profile, seed);
    DiffResult r = diffPipeline(wl.reference, wl.reads);
    if (r.ok)
        r = diffHardenedPipeline(wl.reference, wl.reads);
    if (!r.ok) {
        r.detail = fmt("scenario %s seed %llu: %s",
                       scenarioName(profile),
                       static_cast<unsigned long long>(seed),
                       r.detail.c_str());
    }
    return r;
}

DiffResult
diffScenarioFaultSeed(ScenarioProfile profile, uint64_t seed,
                      uint32_t cards, bool stealing)
{
    ScenarioWorkload wl = makeScenarioWorkload(profile, seed);
    FaultPlan plan = FaultPlan::random(seed);
    DiffResult r = diffFaultPlan(wl.reference, wl.reads, plan, cards,
                                 stealing);
    if (!r.ok) {
        r.detail = fmt("scenario %s seed %llu plan '%s': %s",
                       scenarioName(profile),
                       static_cast<unsigned long long>(seed),
                       plan.describe().c_str(), r.detail.c_str());
    }
    return r;
}

namespace {

/** One design point's streaming-vs-in-memory comparison. */
DiffResult
diffStreamingVariant(const BackendVariant &variant,
                     const ReferenceGenome &ref,
                     const std::string &input_sam)
{
    const std::string label = variant.label + "/streamed";

    // In-memory arm: batch-load the same serialized bytes so both
    // arms parse identical records, realign, serialize.
    std::istringstream mem_in(input_sam);
    std::vector<Read> mem_reads = readSamLite(mem_in, ref);
    RealignJobConfig cfg;
    cfg.threads = variant.jobThreads;
    RealignSession mem_session(makeVariantBackend(variant), cfg);
    RealignJobResult mem_result = mem_session.run(ref, mem_reads);
    std::ostringstream mem_out;
    writeSamLite(mem_out, ref, mem_reads);

    // Streaming arm: contig batches pulled off the same bytes,
    // realigned group-by-group, serialized as the groups complete.
    std::istringstream stream_in(input_sam);
    SamLiteBatchSource source(stream_in, ref);
    RealignSession stream_session(makeVariantBackend(variant), cfg);
    std::ostringstream stream_out;
    StreamRealignResult stream_result = stream_session.runStreamed(
        ref, source, [&](std::vector<Read> &group) {
            writeSamLite(stream_out, ref, group);
        });

    if (!stream_result.parseOk) {
        return DiffResult::fail(
            label, fmt("streaming ingest rejected its own "
                       "serialization: %s",
                       stream_result.parseError.describe().c_str()));
    }
    if (stream_result.readsStreamed != mem_reads.size()) {
        return DiffResult::fail(
            label,
            fmt("streamed %llu reads, in-memory load has %zu",
                static_cast<unsigned long long>(
                    stream_result.readsStreamed),
                mem_reads.size()));
    }
    if (stream_out.str() != mem_out.str()) {
        const std::string &a = stream_out.str();
        const std::string &b = mem_out.str();
        size_t n = std::min(a.size(), b.size());
        size_t at = n;
        for (size_t i = 0; i < n; ++i) {
            if (a[i] != b[i]) {
                at = i;
                break;
            }
        }
        return DiffResult::fail(
            label,
            fmt("realigned SAM-lite output diverges at byte %zu "
                "(%zu vs %zu bytes total)",
                at, a.size(), b.size()));
    }
    const RealignStats &s = stream_result.job.stats;
    const RealignStats &m = mem_result.stats;
    if (s.targets != m.targets ||
        s.readsConsidered != m.readsConsidered ||
        s.readsRealigned != m.readsRealigned ||
        s.consensusesEvaluated != m.consensusesEvaluated ||
        !statsEqual(s.whd, m.whd)) {
        return DiffResult::fail(
            label,
            fmt("RealignStats diverge: targets %llu/%llu "
                "considered %llu/%llu realigned %llu/%llu "
                "consensuses %llu/%llu whd %s vs %s",
                static_cast<unsigned long long>(s.targets),
                static_cast<unsigned long long>(m.targets),
                static_cast<unsigned long long>(s.readsConsidered),
                static_cast<unsigned long long>(m.readsConsidered),
                static_cast<unsigned long long>(s.readsRealigned),
                static_cast<unsigned long long>(m.readsRealigned),
                static_cast<unsigned long long>(
                    s.consensusesEvaluated),
                static_cast<unsigned long long>(
                    m.consensusesEvaluated),
                statsString(s.whd).c_str(),
                statsString(m.whd).c_str()));
    }
    return {};
}

} // anonymous namespace

DiffResult
diffStreamingIngest(const ReferenceGenome &ref,
                    const std::vector<Read> &reads,
                    const std::vector<BackendVariant> &variants)
{
    std::ostringstream input;
    writeSamLite(input, ref, reads);
    const std::string input_sam = input.str();

    for (const BackendVariant &variant : variants) {
        DiffResult r;
        if (!variant.kernel.empty()) {
            SimdKernel kernel;
            panic_if(!parseSimdKernel(variant.kernel, &kernel),
                     "variant '%s' names unknown SIMD kernel '%s'",
                     variant.label.c_str(), variant.kernel.c_str());
            ScopedSimdKernel scope(kernel);
            r = diffStreamingVariant(variant, ref, input_sam);
        } else {
            r = diffStreamingVariant(variant, ref, input_sam);
        }
        if (!r.ok)
            return r;
    }
    return {};
}

DiffResult
diffStreamingIngestSeed(uint64_t seed)
{
    GenomeWorkload workload = makeDiffGenome(seed);
    std::vector<Read> reads;
    for (const ChromosomeWorkload &chrom : workload.chromosomes)
        reads.insert(reads.end(), chrom.reads.begin(),
                     chrom.reads.end());
    DiffResult r = diffStreamingIngest(workload.reference, reads);
    if (!r.ok) {
        r.detail = fmt("seed %llu: %s",
                       static_cast<unsigned long long>(seed),
                       r.detail.c_str());
    }
    return r;
}

std::vector<Read>
minimizeReads(const ReferenceGenome &ref, std::vector<Read> reads,
              const std::function<DiffResult(
                  const ReferenceGenome &,
                  const std::vector<Read> &)> &check)
{
    auto fails = [&](const std::vector<Read> &r) {
        return !check(ref, r).ok;
    };
    if (!fails(reads))
        return reads;

    // Whole contigs first: a mismatch is almost always local to one.
    std::set<int32_t> contigs;
    for (const Read &r : reads)
        contigs.insert(r.contig);
    if (contigs.size() > 1) {
        for (int32_t c : contigs) {
            std::vector<Read> candidate;
            for (const Read &r : reads)
                if (r.contig != c)
                    candidate.push_back(r);
            if (!candidate.empty() && fails(candidate))
                reads = std::move(candidate);
        }
    }

    // Then delta-debugging style chunk removal down to single reads.
    size_t chunk = std::max<size_t>(1, reads.size() / 2);
    while (chunk >= 1) {
        bool removed = false;
        for (size_t start = 0;
             start < reads.size() && reads.size() > 1;
             /* advance below */) {
            size_t len = std::min(chunk, reads.size() - start);
            if (len == reads.size()) {
                start += len;
                continue;
            }
            std::vector<Read> candidate;
            candidate.reserve(reads.size() - len);
            candidate.insert(candidate.end(), reads.begin(),
                             reads.begin() + start);
            candidate.insert(candidate.end(),
                             reads.begin() + start + len,
                             reads.end());
            if (fails(candidate)) {
                reads = std::move(candidate);
                removed = true; // same start now names new reads
            } else {
                start += len;
            }
        }
        if (chunk == 1 && !removed)
            break;
        if (!removed)
            chunk /= 2;
    }
    return reads;
}

IrTargetInput
minimizeKernelInput(
    IrTargetInput input,
    const std::function<DiffResult(const IrTargetInput &)> &check)
{
    auto fails = [&](const IrTargetInput &t) {
        return !check(t).ok;
    };
    if (!fails(input))
        return input;

    bool shrunk = true;
    while (shrunk) {
        shrunk = false;
        for (size_t j = 0; j < input.numReads();) {
            IrTargetInput candidate = input;
            candidate.readBases.erase(candidate.readBases.begin() + j);
            candidate.readQuals.erase(candidate.readQuals.begin() + j);
            candidate.readIndices.erase(
                candidate.readIndices.begin() + j);
            if (fails(candidate)) {
                input = std::move(candidate);
                shrunk = true;
            } else {
                ++j;
            }
        }
        // Consensus 0 is the reference window and structural.
        for (size_t i = 1; i < input.numConsensuses();) {
            IrTargetInput candidate = input;
            candidate.consensuses.erase(
                candidate.consensuses.begin() + i);
            candidate.events.erase(candidate.events.begin() + i);
            if (fails(candidate)) {
                input = std::move(candidate);
                shrunk = true;
            } else {
                ++i;
            }
        }
    }
    return input;
}

} // namespace difftest
} // namespace iracc
