#include "testing/workload_gen.hh"

#include <algorithm>

#include "realign/limits.hh"
#include "util/logging.hh"

namespace iracc {
namespace difftest {

namespace {

/** Stream tags keeping kernel and pipeline generation independent. */
constexpr uint64_t kKernelStream = 0xD1FFC0DEull;
constexpr uint64_t kPipelineStream = 0xD1FF6E02ull;

/**
 * Per-target worst-case comparison budget.  Randomized dimensions
 * are rejected above this so one seed's kernel sweep stays in the
 * tens of milliseconds even with six kernel configurations run per
 * target.
 */
constexpr uint64_t kComparisonBudget = 2'000'000;

BaseSeq
randomBases(Rng &rng, size_t len)
{
    static const char alphabet[4] = {'A', 'C', 'G', 'T'};
    BaseSeq out;
    out.reserve(len);
    for (size_t i = 0; i < len; ++i)
        out.push_back(alphabet[rng.below(4)]);
    return out;
}

/** Boundary-biased quality: extremes are where sentinel and
 *  saturation bugs live, so half the draws land on them. */
uint8_t
randomQual(Rng &rng)
{
    switch (rng.below(6)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return 254;
      case 3: return 255;
      default:
        return static_cast<uint8_t>(rng.below(64));
    }
}

QualSeq
randomQuals(Rng &rng, size_t len)
{
    QualSeq out;
    out.reserve(len);
    for (size_t i = 0; i < len; ++i)
        out.push_back(randomQual(rng));
    return out;
}

/** Boundary-biased dimension draw over [lo, hi]. */
size_t
boundaryPick(Rng &rng, size_t lo, size_t hi,
             std::initializer_list<size_t> edges)
{
    if (rng.chance(0.5)) {
        size_t n = edges.size();
        if (n > 0) {
            size_t v = *(edges.begin() + rng.below(n));
            return std::clamp(v, lo, hi);
        }
    }
    return static_cast<size_t>(
        rng.range(static_cast<int64_t>(lo), static_cast<int64_t>(hi)));
}

/** Skeleton with window metadata and placeholder events filled. */
IrTargetInput
makeSkeleton(Rng &rng, size_t window_len)
{
    IrTargetInput input;
    input.windowStart = rng.below(5000);
    input.windowEnd = input.windowStart +
                      static_cast<int64_t>(window_len);
    input.target.start = input.windowStart;
    input.target.end = input.windowEnd;
    return input;
}

void
addConsensus(IrTargetInput &input, BaseSeq cons)
{
    input.consensuses.push_back(std::move(cons));
    input.events.emplace_back();
}

/**
 * Add a read.  70 % of reads are sampled from a random consensus at
 * a random offset with a few point errors (realistic placements
 * that exercise pruning); the rest are pure noise (worst case for
 * the minimum search).
 */
void
addRead(IrTargetInput &input, Rng &rng, size_t len)
{
    BaseSeq bases;
    if (!input.consensuses.empty() && rng.chance(0.7)) {
        const BaseSeq &cons =
            input.consensuses[rng.below(input.consensuses.size())];
        if (cons.size() >= len) {
            size_t k = rng.below(cons.size() - len + 1);
            bases = cons.substr(k, len);
            size_t errors = rng.below(1 + len / 16);
            for (size_t e = 0; e < errors; ++e) {
                bases[rng.below(len)] =
                    "ACGT"[rng.below(4)];
            }
        }
    }
    if (bases.empty())
        bases = randomBases(rng, len);
    input.readIndices.push_back(
        static_cast<uint32_t>(input.readIndices.size()));
    input.addRead(bases, randomQuals(rng, len));
}

/**
 * Consensus 0 with one indel applied, like the alternatives
 * consensus generation builds (realign/consensus.hh): a deletion of
 * up to 24 bases or an insertion of up to 24 random or tandem-copied
 * bases, anchored at the window start, its end, or anywhere.  These
 * are the consensuses whose sweeps share consensus 0's.
 */
BaseSeq
indelConsensus(Rng &rng, const BaseSeq &ref)
{
    const size_t at = boundaryPick(rng, 0, ref.size(),
                                   {0, 1, ref.size() / 2,
                                    ref.size() - 1, ref.size()});
    BaseSeq alt = ref;
    if (at < ref.size() && rng.chance(0.5)) {
        alt.erase(at, 1 + rng.below(std::min<size_t>(
                               24, ref.size() - at)));
        return alt;
    }
    const size_t len = 1 + rng.below(24);
    BaseSeq ins = randomBases(rng, len);
    if (at >= len && rng.chance(0.5))
        ins = ref.substr(at - len, len); // tandem duplication
    alt.insert(at, ins);
    return alt;
}

/** Drop reads until the target fits the comparison budget. */
void
enforceBudget(IrTargetInput &input)
{
    while (input.numReads() > 0 &&
           input.worstCaseComparisons() > kComparisonBudget) {
        input.readSeqs.pop_back();
        input.readIndices.pop_back();
    }
}

/**
 * The deterministic boundary library: the degenerate and
 * at-the-limit corners every seed must cover regardless of what
 * the randomized draws produce.
 */
std::vector<IrTargetInput>
boundaryLibrary(Rng &rng)
{
    std::vector<IrTargetInput> out;

    // Zero consensuses with reads: rejected by marshalling, must be
    // a clean software no-op.
    {
        IrTargetInput t = makeSkeleton(rng, 0);
        addRead(t, rng, 40);
        addRead(t, rng, 40);
        out.push_back(std::move(t));
    }

    // Zero reads, several consensuses.
    {
        IrTargetInput t = makeSkeleton(rng, 80);
        for (int i = 0; i < 3; ++i)
            addConsensus(t, randomBases(rng, 80));
        out.push_back(std::move(t));
    }

    // Reference only (no alternative consensus to pick).
    {
        IrTargetInput t = makeSkeleton(rng, 120);
        addConsensus(t, randomBases(rng, 120));
        for (int j = 0; j < 6; ++j)
            addRead(t, rng, 30 + rng.below(60));
        out.push_back(std::move(t));
    }

    // Every read longer than every consensus: no feasible
    // placement anywhere, must be a no-op in every backend.
    {
        IrTargetInput t = makeSkeleton(rng, 40);
        addConsensus(t, randomBases(rng, 40));
        addConsensus(t, randomBases(rng, 32));
        for (int j = 0; j < 4; ++j)
            addRead(t, rng, 41 + rng.below(60));
        out.push_back(std::move(t));
    }

    // Mixed feasibility: consensus 1 shorter than every read (an
    // infeasible alternative), consensus 2 a genuine candidate.
    {
        IrTargetInput t = makeSkeleton(rng, 100);
        addConsensus(t, randomBases(rng, 100));
        addConsensus(t, randomBases(rng, 20));
        BaseSeq alt = randomBases(rng, 100);
        addConsensus(t, alt);
        for (int j = 0; j < 5; ++j) {
            size_t len = 30 + rng.below(40);
            size_t k = rng.below(alt.size() - len + 1);
            t.readIndices.push_back(
                static_cast<uint32_t>(t.readIndices.size()));
            t.addRead(std::string_view(alt).substr(k, len),
                      randomQuals(rng, len));
        }
        out.push_back(std::move(t));
    }

    // Full occupancy at small lengths: kMaxConsensuses x kMaxReads.
    {
        IrTargetInput t = makeSkeleton(rng, 48);
        for (uint32_t i = 0; i < kMaxConsensuses; ++i)
            addConsensus(t, randomBases(rng, 40 + rng.below(9)));
        for (uint32_t j = 0; j < kMaxReads; ++j)
            addRead(t, rng, 8 + rng.below(24));
        out.push_back(std::move(t));
    }

    // Maximum lengths: a kMaxConsensusLen window with reads at
    // exactly kMaxReadLen (including one read == consensus length
    // after the stride, i.e. the single-offset case).
    {
        IrTargetInput t = makeSkeleton(rng, kMaxConsensusLen);
        addConsensus(t, randomBases(rng, kMaxConsensusLen));
        addConsensus(t, randomBases(rng, kMaxReadLen));
        addRead(t, rng, kMaxReadLen);
        addRead(t, rng, kMaxReadLen);
        out.push_back(std::move(t));
    }

    // Saturation stress: maximum-quality all-mismatch reads (the
    // WHD accumulator's high end; full saturation is covered by
    // whd_test, this keeps the differential on the same path).
    {
        IrTargetInput t = makeSkeleton(rng, 300);
        addConsensus(t, BaseSeq(300, 'A'));
        addConsensus(t, BaseSeq(280, 'A'));
        for (int j = 0; j < 3; ++j) {
            size_t len = 100 + rng.below(100);
            t.readIndices.push_back(
                static_cast<uint32_t>(t.readIndices.size()));
            t.addRead(BaseSeq(len, 'C'), QualSeq(len, 255));
        }
        out.push_back(std::move(t));
    }

    // Realistic alternatives: consensus 0 with one indel each,
    // plus an exact copy of consensus 0, read lengths from one base
    // to past the window.  Their sweeps share consensus 0's.
    {
        IrTargetInput t = makeSkeleton(rng, 160);
        addConsensus(t, randomBases(rng, 160));
        addConsensus(t, t.consensuses[0]);
        for (int i = 0; i < 8; ++i)
            addConsensus(t, indelConsensus(rng, t.consensuses[0]));
        for (size_t len : {1u, 16u, 50u, 100u, 150u, 160u, 170u})
            for (int j = 0; j < 3; ++j)
                addRead(t, rng, len);
        out.push_back(std::move(t));
    }

    return out;
}

IrTargetInput
randomTarget(Rng &rng)
{
    size_t num_cons =
        boundaryPick(rng, 0, kMaxConsensuses,
                     {0, 1, 2, kMaxConsensuses - 1, kMaxConsensuses});
    size_t cons_len =
        boundaryPick(rng, 16, 384, {16, 17, 64, 255, 256, 257, 384});
    IrTargetInput t = makeSkeleton(rng, cons_len);
    for (size_t i = 0; i < num_cons; ++i) {
        // Alternative consensuses vary in length like real indel
        // candidates; occasionally degenerate to shorter than every
        // read.  Half are consensus 0 with one indel, as consensus
        // generation builds them.
        if (i > 0 && rng.chance(0.5)) {
            addConsensus(t, indelConsensus(rng, t.consensuses[0]));
            continue;
        }
        size_t len = i == 0 ? cons_len
                            : boundaryPick(rng, 8, cons_len + 24,
                                           {8, cons_len - 1, cons_len,
                                            cons_len + 24});
        addConsensus(t, randomBases(rng, len));
    }
    size_t num_reads =
        boundaryPick(rng, 0, kMaxReads, {0, 1, 2, 31, kMaxReads});
    for (size_t j = 0; j < num_reads; ++j) {
        size_t len = boundaryPick(
            rng, 1, std::min<size_t>(kMaxReadLen, cons_len + 8),
            {1, 2, 16, cons_len - 1, cons_len, cons_len + 8,
             kMaxReadLen});
        addRead(t, rng, len);
    }
    enforceBudget(t);
    return t;
}

} // anonymous namespace

std::vector<IrTargetInput>
makeKernelInputs(uint64_t seed)
{
    Rng rng = Rng::stream(kKernelStream, seed);
    std::vector<IrTargetInput> out = boundaryLibrary(rng);
    const size_t randomized = 6;
    for (size_t i = 0; i < randomized; ++i)
        out.push_back(randomTarget(rng));
    return out;
}

namespace {

/** Stream tag keeping scenario generation independent of the
 *  kernel and pipeline streams. */
constexpr uint64_t kScenarioStream = 0xD1FF5CE2ull;

/** Flatten a workload into one contig-grouped read vector:
 *  per chromosome, tumor/sample reads then the matched normal. */
std::vector<Read>
flattenReads(GenomeWorkload &wl)
{
    std::vector<Read> reads;
    for (ChromosomeWorkload &chrom : wl.chromosomes) {
        for (Read &r : chrom.reads)
            reads.push_back(std::move(r));
        for (Read &r : chrom.normalReads)
            reads.push_back(std::move(r));
    }
    return reads;
}

/** Shared sizing: one scaled Ch22 (or a compact corpus-sized one). */
WorkloadParams
scenarioBaseParams(uint64_t seed, bool compact)
{
    WorkloadParams p;
    p.seed = 0x5CE2ADA12878ull ^ (seed * 0x9E3779B97F4A7C15ull);
    p.scaleDivisor = 20000;
    p.minContigLength = compact ? 6000 : 15000;
    p.chromosomes = {22};
    p.coverage = compact ? 4.0 : 8.0;
    return p;
}

/**
 * Low-complexity reference: homopolymer runs, dinucleotide and
 * triplet tandem repeats, separated by short random spacers.
 */
BaseSeq
lowComplexitySequence(Rng &rng, int64_t length)
{
    static const char alphabet[4] = {'A', 'C', 'G', 'T'};
    BaseSeq seq;
    seq.reserve(static_cast<size_t>(length));
    while (static_cast<int64_t>(seq.size()) < length) {
        switch (rng.below(4)) {
          case 0: { // homopolymer run
            char b = alphabet[rng.below(4)];
            size_t run = 20 + rng.below(60);
            seq.append(run, b);
            break;
          }
          case 1: { // dinucleotide repeat
            char a = alphabet[rng.below(4)];
            char b = alphabet[rng.below(4)];
            size_t units = 12 + rng.below(30);
            for (size_t i = 0; i < units; ++i) {
                seq.push_back(a);
                seq.push_back(b);
            }
            break;
          }
          case 2: { // short tandem repeat (3-6 bp unit)
            size_t unit_len = 3 + rng.below(4);
            BaseSeq unit;
            for (size_t i = 0; i < unit_len; ++i)
                unit.push_back(alphabet[rng.below(4)]);
            size_t units = 8 + rng.below(20);
            for (size_t i = 0; i < units; ++i)
                seq += unit;
            break;
          }
          default: { // random spacer
            size_t run = 40 + rng.below(120);
            for (size_t i = 0; i < run; ++i)
                seq.push_back(alphabet[rng.below(4)]);
            break;
          }
        }
    }
    seq.resize(static_cast<size_t>(length));
    return seq;
}

ScenarioWorkload
makeLowComplexity(uint64_t seed, bool compact)
{
    Rng rng = Rng::stream(kScenarioStream, seed ^ 0x10c0ull);
    ScenarioWorkload out;
    const int64_t length = compact ? 6000 : 15000;
    int32_t contig = out.reference.addContig(
        "Ch22", lowComplexitySequence(rng, length));

    VariantGenParams vp;
    vp.insRate = 1.2e-3;
    vp.delRate = 1.2e-3;
    vp.maxIndelLen = 12;
    vp.clusterProb = 0.5;
    std::vector<Variant> truth = generateVariants(
        out.reference.contig(contig).seq, contig, vp, rng);

    ReadSimParams sim;
    sim.readLength = 100;
    sim.coverage = compact ? 4.0 : 8.0;
    // Repeats make placement ambiguous even at normal quality;
    // a slightly degraded model adds realistic noise on top.
    sim.qualMean = 28.0;
    sim.indelShiftProb = 0.5;
    ReadSimulator simulator(sim, rng.next());
    out.reads =
        simulator.simulateContig(out.reference, contig, truth).reads;
    return out;
}

ScenarioWorkload
makeContaminated(uint64_t seed, bool compact)
{
    WorkloadParams p = scenarioBaseParams(seed, compact);
    p.variants.insRate = 1e-3;
    p.variants.delRate = 1e-3;
    p.variants.maxIndelLen = 14;
    GenomeWorkload wl = buildWorkload(p);

    ScenarioWorkload out;
    out.reads = flattenReads(wl);
    out.reference = std::move(wl.reference);

    // The contaminant: a second donor on the same reference with
    // its own (disjoint-by-construction) variant stream, at ~12 %
    // of the sample's depth.  Its reads carry germline-looking
    // alleles the main donor does not have -- exactly the
    // low-allele-fraction noise a contaminated library shows.
    Rng crng = Rng::stream(kScenarioStream, seed ^ 0xC047ull);
    for (ChromosomeWorkload &chrom : wl.chromosomes) {
        VariantGenParams vp = p.variants;
        std::vector<Variant> donor2 = generateVariants(
            out.reference.contig(chrom.contig).seq, chrom.contig,
            vp, crng);
        ReadSimParams sim = p.readSim;
        sim.coverage = p.coverage * 0.12;
        ReadSimulator simulator(sim, crng.next());
        SimulatedReads sr = simulator.simulateContig(
            out.reference, chrom.contig, donor2);
        for (Read &r : sr.reads) {
            r.name = "C" + r.name;
            out.reads.push_back(std::move(r));
        }
    }
    return out;
}

} // anonymous namespace

std::vector<ScenarioProfile>
allScenarioProfiles()
{
    return {ScenarioProfile::LongRead, ScenarioProfile::SvDense,
            ScenarioProfile::LowComplexity,
            ScenarioProfile::TumorNormal,
            ScenarioProfile::Contaminated};
}

const char *
scenarioName(ScenarioProfile profile)
{
    switch (profile) {
      case ScenarioProfile::LongRead:      return "long-read";
      case ScenarioProfile::SvDense:       return "sv-dense";
      case ScenarioProfile::LowComplexity: return "low-complexity";
      case ScenarioProfile::TumorNormal:   return "tumor-normal";
      case ScenarioProfile::Contaminated:  return "contaminated";
    }
    panic("invalid ScenarioProfile %d", static_cast<int>(profile));
}

bool
parseScenario(const std::string &name, ScenarioProfile *out)
{
    for (ScenarioProfile p : allScenarioProfiles()) {
        if (name == scenarioName(p)) {
            *out = p;
            return true;
        }
    }
    return false;
}

ScenarioWorkload
makeScenarioWorkload(ScenarioProfile profile, uint64_t seed,
                     bool compact)
{
    switch (profile) {
      case ScenarioProfile::LongRead: {
        WorkloadParams p = scenarioBaseParams(seed, compact);
        // kMaxReadLen-bounded long reads with a fast-decaying,
        // jittery quality model: high per-base error rates.
        p.readSim.readLength = 250;
        p.readSim.qualMean = 16.0;
        p.readSim.qualDecay = 14.0;
        p.readSim.qualJitter = 6.0;
        p.readSim.indelShiftProb = 0.5;
        p.variants.insRate = 1e-3;
        p.variants.delRate = 1e-3;
        p.variants.maxIndelLen = 18;
        GenomeWorkload wl = buildWorkload(p);
        ScenarioWorkload out;
        out.reads = flattenReads(wl);
        out.reference = std::move(wl.reference);
        return out;
      }
      case ScenarioProfile::SvDense: {
        WorkloadParams p = scenarioBaseParams(seed, compact);
        p.variants.insRate = 3e-3;
        p.variants.delRate = 3e-3;
        p.variants.maxIndelLen = 40;
        p.variants.minIndelSpacing = 120;
        p.variants.clusterProb = 0.8;
        p.variants.clusterMaxExtra = 4;
        p.variants.clusterSpacingMax = 200;
        GenomeWorkload wl = buildWorkload(p);
        ScenarioWorkload out;
        out.reads = flattenReads(wl);
        out.reference = std::move(wl.reference);
        return out;
      }
      case ScenarioProfile::LowComplexity:
        return makeLowComplexity(seed, compact);
      case ScenarioProfile::TumorNormal: {
        WorkloadParams p = scenarioBaseParams(seed, compact);
        p.normalCoverage = compact ? 3.0 : 6.0;
        p.variants.somaticFraction = 0.85;
        p.variants.insRate = 1.5e-3;
        p.variants.delRate = 1.5e-3;
        p.variants.maxIndelLen = 16;
        GenomeWorkload wl = buildWorkload(p);
        ScenarioWorkload out;
        out.reads = flattenReads(wl);
        out.reference = std::move(wl.reference);
        return out;
      }
      case ScenarioProfile::Contaminated:
        return makeContaminated(seed, compact);
    }
    panic("invalid ScenarioProfile %d", static_cast<int>(profile));
}

GenomeWorkload
makeDiffGenome(uint64_t seed)
{
    Rng rng = Rng::stream(kPipelineStream, seed);
    WorkloadParams p;
    p.seed = 0xD1FFADA12878ull ^
             (seed * 0x9E3779B97F4A7C15ull);
    // 1-2 small contigs so eight backend variants (four of them
    // cycle-level simulations) stay affordable per seed.
    p.scaleDivisor = 20000;
    p.minContigLength = 15000;
    p.chromosomes = rng.chance(0.5) ? std::vector<int>{22}
                                    : std::vector<int>{21, 22};
    p.coverage = 6.0 + static_cast<double>(rng.below(8));
    static const int32_t read_lens[] = {36, 75, 100, 150, 250};
    p.readSim.readLength = read_lens[rng.below(5)];
    p.variants.insRate = 8e-4;
    p.variants.delRate = 8e-4;
    p.variants.maxIndelLen =
        static_cast<int32_t>(4 + rng.below(21));
    p.variants.clusterProb = 0.4;
    return buildWorkload(p);
}

} // namespace difftest
} // namespace iracc
