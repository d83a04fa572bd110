#include "realign/stages.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "realign/limits.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace iracc {

namespace {

/**
 * Sort @p keys with a stable LSD radix sort over their eight bytes.
 * A byte equal in every key takes no pass, nor do the low four when
 * @p byLow says the keys arrive ascending in them.  @p scratch is
 * the second buffer.
 */
void
radixSort(std::vector<uint64_t> &keys, std::vector<uint64_t> &scratch,
          bool byLow)
{
    const size_t n = keys.size();
    uint32_t counts[8 * 256] = {};
    for (uint64_t key : keys) {
        for (size_t d = 0; d < 8; ++d)
            ++counts[d * 256 + (key >> (8 * d) & 0xFF)];
    }
    scratch.resize(n);
    for (size_t d = byLow ? 4 : 0; d < 8 && n > 1; ++d) {
        uint32_t *count = counts + d * 256;
        if (count[keys[0] >> (8 * d) & 0xFF] == n)
            continue;
        uint32_t at = 0;
        for (size_t b = 0; b < 256; ++b)
            at += std::exchange(count[b], at);
        for (uint64_t key : keys)
            scratch[count[key >> (8 * d) & 0xFF]++] = key;
        keys.swap(scratch);
    }
}

} // anonymous namespace

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

    // The claimable reads -- on this contig, not duplicates -- in
    // (position, index) order for range queries.  Other reads are
    // never claimed, so a pre-partitioned per-contig candidate list
    // yields the same plan as scanning the whole read set.  The
    // widest reference span among them bounds how far before a
    // target a read that overlaps it can start.  A key holds the
    // read index in its low half.
    std::vector<uint64_t> keys;
    int64_t max_span = 0;
    int64_t lo = std::numeric_limits<int64_t>::max();
    int64_t hi = std::numeric_limits<int64_t>::min();
    bool byIndex = true;
    auto add = [&](uint32_t i) {
        const Read &read = reads[i];
        if (read.contig == contig && !read.duplicate) {
            byIndex = byIndex && (keys.empty() || keys.back() < i);
            keys.push_back(i);
            lo = std::min(lo, read.pos);
            hi = std::max(hi, read.pos);
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
    auto readOf = [&reads](uint64_t key) -> const Read & {
        return reads[static_cast<uint32_t>(key)];
    };
    if (!keys.empty() && (static_cast<uint64_t>(hi) -
                          static_cast<uint64_t>(lo)) >> 32 == 0) {
        // Positions fit in 32 bits above the lowest: stored above the
        // index, they make integer order (position, index) order.
        // The keys and the radix sort's second buffer take the 16
        // bytes per read one (position, index) pair took; a buffer
        // kept per thread would outlive the call.
        for (uint64_t &key : keys)
            key |= static_cast<uint64_t>(readOf(key).pos - lo) << 32;
        std::vector<uint64_t> scratch;
        radixSort(keys, scratch, byIndex);
    } else {
        std::sort(keys.begin(), keys.end(), [&](uint64_t a, uint64_t b) {
            return std::make_pair(readOf(a).pos, a) <
                   std::make_pair(readOf(b).pos, b);
        });
    }

    // A read may straddle two targets; the first target claims it so
    // targets never share (and never race on) a read.
    std::vector<char> claimed(keys.size(), 0);

    plan.readsPerTarget.reserve(plan.targets.size());
    for (const IrTarget &target : plan.targets) {
        std::vector<uint32_t> assigned;
        const int64_t from = target.start - max_span;
        const auto first = std::partition_point(
            keys.begin(), keys.end(),
            [&](uint64_t key) { return readOf(key).pos < from; });
        for (auto it = first; it != keys.end(); ++it) {
            const Read &read = readOf(*it);
            if (read.pos >= target.end)
                break;
            char &taken = claimed[static_cast<size_t>(it - keys.begin())];
            if (taken || !read.overlaps(contig, target.start, target.end))
                continue;
            if (assigned.size() >= kMaxReads)
                break;
            taken = 1;
            assigned.push_back(static_cast<uint32_t>(*it));
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
                             static_cast<uint32_t>(
                                 input.readSeqs[j].size()),
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
