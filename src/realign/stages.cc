#include "realign/stages.hh"

#include <algorithm>
#include <utility>

#include "realign/limits.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace iracc {

ContigPlan
planStage(const ReferenceGenome &ref, int32_t contig,
          const std::vector<Read> &reads,
          const TargetCreationParams &params,
          const std::vector<uint32_t> *candidates)
{
    ContigPlan plan;
    plan.contig = contig;
    plan.targets = createTargets(reads, contig,
                                 ref.contig(contig).length(), params,
                                 candidates);

    // (pos, index) keys of the claimable reads -- on this contig,
    // not duplicates -- sorted for range queries.  Other reads are
    // never claimed, so a pre-partitioned per-contig candidate list
    // yields the same plan as scanning the whole read set.  The
    // widest reference span among them bounds how far before a
    // target a read that overlaps it can start.
    std::vector<std::pair<int64_t, uint32_t>> keys;
    int64_t max_span = 0;
    auto add = [&](uint32_t i) {
        const Read &read = reads[i];
        if (read.contig == contig && !read.duplicate) {
            keys.emplace_back(read.pos, i);
            max_span = std::max(max_span, read.endPos() - read.pos);
        }
    };
    if (candidates) {
        keys.reserve(candidates->size());
        for (uint32_t i : *candidates)
            add(i);
    } else {
        for (uint32_t i = 0; i < reads.size(); ++i)
            add(i);
    }
    std::sort(keys.begin(), keys.end());

    // A read may straddle two targets; the first target claims it so
    // targets never share (and never race on) a read.
    std::vector<char> claimed(keys.size(), 0);

    plan.readsPerTarget.reserve(plan.targets.size());
    for (const IrTarget &target : plan.targets) {
        std::vector<uint32_t> assigned;
        const auto first = std::lower_bound(
            keys.begin(), keys.end(),
            std::make_pair(target.start - max_span, uint32_t{0}));
        for (auto it = first; it != keys.end(); ++it) {
            if (it->first >= target.end)
                break;
            char &taken = claimed[static_cast<size_t>(it - keys.begin())];
            if (taken ||
                !reads[it->second].overlaps(contig, target.start,
                                            target.end)) {
                continue;
            }
            if (assigned.size() >= kMaxReads)
                break;
            taken = 1;
            assigned.push_back(it->second);
        }
        plan.readsPerTarget.push_back(std::move(assigned));
    }
    return plan;
}

PreparedContig
prepareStage(const ReferenceGenome &ref,
             const std::vector<Read> &reads, const ContigPlan &plan,
             bool marshal, uint32_t threads)
{
    PreparedContig out;
    out.contig = plan.contig;

    // Only non-empty targets flow downstream; record which planned
    // targets survive so workers can fill preallocated slots.
    std::vector<size_t> live;
    live.reserve(plan.targets.size());
    for (size_t t = 0; t < plan.targets.size(); ++t) {
        if (!plan.readsPerTarget[t].empty())
            live.push_back(t);
    }

    out.inputs.resize(live.size());
    if (marshal)
        out.marshalled.resize(live.size());

    auto prepare_one = [&](size_t i) {
        size_t t = live[i];
        out.inputs[i] = buildTargetInput(ref, reads, plan.targets[t],
                                         plan.readsPerTarget[t]);
        if (marshal)
            marshalTargetInto(out.inputs[i], out.marshalled[i]);
    };

    ThreadPool::shared().parallelFor(live.size(), threads, prepare_one);
    return out;
}

std::vector<ConsensusDecision>
executeStageSoftware(const PreparedContig &prepared,
                     const SoftwareRealignerConfig &params,
                     WhdStats *whd)
{
    panic_if(params.threads == 0, "execute stage needs >= 1 thread");
    panic_if(params.workAmplification < 1.0,
             "work amplification must be >= 1.0");

    const size_t n = prepared.inputs.size();
    std::vector<ConsensusDecision> decisions(n);
    std::vector<WhdStats> local(n);

    auto execute_one = [&](size_t t) {
        const IrTargetInput &input = prepared.inputs[t];
        MinWhdGrid grid = minWhd(input, params.prune, &local[t]);
        // Model heavier per-comparison cost of the JVM/Spark
        // baselines by redoing the kernel; results are identical.
        // Fractional amplification re-runs a subset picked by the
        // target's own RNG stream, keyed on (contig, target), so
        // the subset -- and every derived statistic -- does not
        // depend on thread count or contig execution order.
        uint32_t reps =
            static_cast<uint32_t>(params.workAmplification);
        double frac = params.workAmplification - reps;
        if (frac > 0.0) {
            Rng stream = Rng::stream(
                params.rngSeed,
                static_cast<uint64_t>(prepared.contig), t);
            if (stream.chance(frac))
                ++reps;
        }
        if (reps > 1) {
            // Reuse one grid across the re-runs (minWhdInto resets
            // it in place) -- the amplification loop is pure
            // modelled work and must not churn the allocator.
            thread_local MinWhdGrid again(0, 0);
            for (uint32_t extra = 1; extra < reps; ++extra) {
                WhdStats scratch;
                minWhdInto(input, params.prune, &scratch, again);
                panic_if(!(again == grid),
                         "WHD kernel is non-deterministic");
            }
        }
        decisions[t] = scoreAndSelect(grid);
    };

    ThreadPool::shared().parallelFor(n, params.threads, execute_one);

    // Reduce kernel counters in target order: deterministic for
    // any thread count.
    if (whd) {
        for (const WhdStats &s : local)
            whd->merge(s);
    }
    return decisions;
}

void
mapOffsetToAlignment(const IrTargetInput &input, uint32_t cons_idx,
                     uint32_t offset, uint32_t read_len,
                     int64_t &new_pos, Cigar &new_cigar)
{
    const int64_t w = input.windowStart;
    const int64_t k = offset;
    const int64_t n = read_len;

    if (cons_idx == 0) {
        new_pos = w + k;
        new_cigar = Cigar::simpleMatch(read_len);
        return;
    }

    panic_if(cons_idx >= input.events.size(),
             "consensus index %u out of range", cons_idx);
    const IndelEvent &ev = input.events[cons_idx];
    // Window-relative position of the anchor base.
    const int64_t a = ev.anchor - w;

    if (ev.isInsertion) {
        const int64_t len =
            static_cast<int64_t>(ev.insertedBases.size());
        // Inserted bases occupy consensus positions [a+1, a+len].
        if (k + n - 1 <= a) {
            // Entirely before the insertion.
            new_pos = w + k;
            new_cigar = Cigar::simpleMatch(read_len);
        } else if (k > a + len) {
            // Entirely after: consensus runs len long vs reference.
            new_pos = w + k - len;
            new_cigar = Cigar::simpleMatch(read_len);
        } else if (k > a) {
            // Starts inside the inserted bases: soft-clip the
            // leading inserted bases, anchor after the insertion.
            int64_t clip = std::min(a + len - k + 1, n);
            panic_if(clip <= 0, "bad insertion clip");
            new_pos = w + a + 1;
            std::vector<CigarElem> elems = {
                {static_cast<uint32_t>(clip), CigarOp::SoftClip}};
            // A read that fits entirely inside the insertion ends
            // up fully clipped (anchored after the insertion).
            if (clip < n)
                elems.push_back({static_cast<uint32_t>(n - clip),
                                 CigarOp::Match});
            new_cigar = Cigar(std::move(elems));
        } else {
            // Spans the insertion point.
            int64_t pre = a - k + 1;
            int64_t ins = std::min(len, k + n - 1 - a);
            int64_t post = n - pre - ins;
            panic_if(pre <= 0 || ins <= 0 || post < 0,
                     "bad insertion span decomposition");
            std::vector<CigarElem> elems = {
                {static_cast<uint32_t>(pre), CigarOp::Match},
                {static_cast<uint32_t>(ins), CigarOp::Insert}};
            if (post > 0)
                elems.push_back({static_cast<uint32_t>(post),
                                 CigarOp::Match});
            new_pos = w + k;
            new_cigar = Cigar(std::move(elems));
        }
    } else {
        const int64_t len = ev.delLength;
        // Consensus position a is the last base before the deleted
        // reference run [a+1, a+len].
        if (k + n - 1 <= a) {
            new_pos = w + k;
            new_cigar = Cigar::simpleMatch(read_len);
        } else if (k > a) {
            // Entirely after the deletion: reference is len longer.
            new_pos = w + k + len;
            new_cigar = Cigar::simpleMatch(read_len);
        } else {
            // Spans the deletion point.
            int64_t pre = a - k + 1;
            int64_t post = n - pre;
            panic_if(pre <= 0 || post <= 0,
                     "bad deletion span decomposition");
            new_pos = w + k;
            new_cigar = Cigar({
                {static_cast<uint32_t>(pre), CigarOp::Match},
                {static_cast<uint32_t>(len), CigarOp::Delete},
                {static_cast<uint32_t>(post), CigarOp::Match}});
        }
    }
}

uint32_t
applyDecision(const IrTargetInput &input,
              const ConsensusDecision &decision,
              std::vector<Read> &reads)
{
    uint32_t updated = 0;
    for (size_t j = 0; j < input.readIndices.size(); ++j) {
        if (!decision.realign[j])
            continue;
        Read &read = reads[input.readIndices[j]];
        int64_t new_pos = 0;
        Cigar new_cigar;
        mapOffsetToAlignment(input, decision.bestConsensus,
                             decision.newOffset[j],
                             static_cast<uint32_t>(read.length()),
                             new_pos, new_cigar);
        read.pos = new_pos;
        read.cigar = new_cigar;
        read.assertValid();
        ++updated;
    }
    return updated;
}

RealignStats
applyStage(const PreparedContig &prepared,
           const std::vector<ConsensusDecision> &decisions,
           std::vector<Read> &reads)
{
    panic_if(decisions.size() != prepared.inputs.size(),
             "apply stage: %zu decisions for %zu targets",
             decisions.size(), prepared.inputs.size());

    RealignStats stats;
    stats.targets = prepared.inputs.size();
    for (size_t t = 0; t < prepared.inputs.size(); ++t) {
        const IrTargetInput &input = prepared.inputs[t];
        stats.readsConsidered += input.numReads();
        stats.consensusesEvaluated += input.numConsensuses();
        stats.readsRealigned +=
            applyDecision(input, decisions[t], reads);
    }
    return stats;
}

} // namespace iracc
