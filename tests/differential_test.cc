/**
 * @file
 * The cross-backend differential harness as a unit test: a fixed
 * seed sweep of the kernel- and pipeline-level differentials
 * (tools/iracc_diff runs the same checks over many more seeds), the
 * repro-case serialization round trip, the minimizer, and replay of
 * every committed corpus case in tests/corpus/ -- each corpus file
 * is a workload that once exposed (or guards against) a
 * cross-backend divergence, so replaying them keeps those bugs
 * fixed forever.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "realign/whd_simd.hh"
#include "testing/corpus.hh"
#include "testing/differential.hh"
#include "testing/workload_gen.hh"

namespace iracc {
namespace {

using difftest::DiffResult;
using difftest::ReproCase;

/** Every read's bases and qualities, to compare two inputs. */
std::vector<std::pair<BaseSeq, QualSeq>>
readData(const IrTargetInput &t)
{
    std::vector<std::pair<BaseSeq, QualSeq>> out;
    for (size_t j = 0; j < t.numReads(); ++j) {
        const std::span<const uint8_t> q = t.readSeqs[j].quals();
        out.emplace_back(BaseSeq(t.readSeqs[j].bases()),
                         QualSeq(q.begin(), q.end()));
    }
    return out;
}

TEST(Differential, KernelSeedSweep)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        DiffResult r = difftest::diffKernelSeed(seed);
        EXPECT_TRUE(r.ok)
            << "[" << r.variant << "] " << r.detail;
    }
}

TEST(Differential, PipelineSeedSweep)
{
    DiffResult r = difftest::diffPipelineSeed(1);
    EXPECT_TRUE(r.ok) << "[" << r.variant << "] " << r.detail;
}

TEST(Differential, ScenarioProfileSweep)
{
    // Every hostile-workload scenario profile is a named design
    // point: full cross-backend pipeline differential plus the
    // hardened transparency check (iracc_diff --scenario-seeds
    // sweeps many more seeds in CI).
    for (difftest::ScenarioProfile profile :
         difftest::allScenarioProfiles()) {
        DiffResult r = difftest::diffScenarioSeed(profile, 1);
        EXPECT_TRUE(r.ok)
            << difftest::scenarioName(profile) << ": ["
            << r.variant << "] " << r.detail;
    }
}

TEST(Differential, ScenarioNamesRoundTrip)
{
    for (difftest::ScenarioProfile profile :
         difftest::allScenarioProfiles()) {
        difftest::ScenarioProfile back{};
        ASSERT_TRUE(difftest::parseScenario(
            difftest::scenarioName(profile), &back));
        EXPECT_EQ(back, profile);
        // Same profile + seed => bit-identical workload; the
        // scenario is a reproducible design point, not a one-off.
        difftest::ScenarioWorkload a =
            difftest::makeScenarioWorkload(profile, 5, true);
        difftest::ScenarioWorkload b =
            difftest::makeScenarioWorkload(profile, 5, true);
        ASSERT_EQ(a.reads.size(), b.reads.size());
        for (size_t i = 0; i < a.reads.size(); ++i) {
            EXPECT_EQ(a.reads[i].name, b.reads[i].name);
            EXPECT_EQ(a.reads[i].bases(), b.reads[i].bases());
            EXPECT_EQ(a.reads[i].pos, b.reads[i].pos);
        }
    }
    difftest::ScenarioProfile ignored{};
    EXPECT_FALSE(difftest::parseScenario("no-such", &ignored));
}

TEST(Differential, StreamingIngestSweep)
{
    DiffResult r = difftest::diffStreamingIngestSeed(1);
    EXPECT_TRUE(r.ok) << "[" << r.variant << "] " << r.detail;
}

TEST(Differential, GeneratorIsDeterministic)
{
    auto a = difftest::makeKernelInputs(42);
    auto b = difftest::makeKernelInputs(42);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].consensuses, b[i].consensuses) << i;
        EXPECT_EQ(readData(a[i]), readData(b[i])) << i;
    }
    // The generated set must cover the degenerate corners.
    bool zero_cons = false, zero_reads = false;
    for (const IrTargetInput &t : a) {
        zero_cons |= t.numConsensuses() == 0;
        zero_reads |= t.numConsensuses() > 0 && t.numReads() == 0;
    }
    EXPECT_TRUE(zero_cons);
    EXPECT_TRUE(zero_reads);
}

TEST(Differential, ReproCaseKernelRoundTrip)
{
    ReproCase repro;
    repro.kind = "kernel";
    repro.seed = 7;
    repro.variant = "accelerated/width=1/prune=on";
    repro.detail = "synthetic round-trip case";
    repro.target.windowStart = 120;
    repro.target.windowEnd = 128;
    repro.target.consensuses = {"ACGTACGT", "ACGACGT"};
    repro.target.events.resize(2);
    repro.target.addRead("CGTA", QualSeq{0, 17, 255, 3});
    repro.target.addRead("ACG", QualSeq{30, 30, 1});
    repro.target.readIndices = {0, 1};

    std::stringstream ss;
    difftest::writeReproCase(ss, repro);
    ReproCase back = difftest::readReproCase(ss);

    EXPECT_EQ(back.kind, "kernel");
    EXPECT_EQ(back.seed, 7u);
    EXPECT_EQ(back.variant, repro.variant);
    EXPECT_EQ(back.detail, repro.detail);
    EXPECT_EQ(back.target.windowStart, 120);
    EXPECT_EQ(back.target.windowEnd, 128);
    EXPECT_EQ(back.target.consensuses, repro.target.consensuses);
    EXPECT_EQ(readData(back.target), readData(repro.target));
}

TEST(Differential, ReproCasePipelineRoundTrip)
{
    ReproCase repro;
    repro.kind = "pipeline";
    repro.seed = 9;
    repro.reference.addContig("c1", "ACGTACGTACGTACGTACGT");
    Read r;
    r.name = "r1";
    r.contig = 0;
    r.pos = 4;
    r.setSequence("ACGTAC", QualSeq{30, 31, 32, 33, 34, 35});
    r.cigar = Cigar::simpleMatch(6);
    repro.reads = {r};

    std::stringstream ss;
    difftest::writeReproCase(ss, repro);
    ReproCase back = difftest::readReproCase(ss);

    ASSERT_EQ(back.reference.numContigs(), 1u);
    EXPECT_EQ(back.reference.contig(0).seq,
              repro.reference.contig(0).seq);
    ASSERT_EQ(back.reads.size(), 1u);
    EXPECT_EQ(back.reads[0].name, "r1");
    EXPECT_EQ(back.reads[0].pos, 4);
    EXPECT_EQ(back.reads[0].bases(), "ACGTAC");
    EXPECT_TRUE(std::ranges::equal(back.reads[0].quals(), r.quals()));
}

TEST(Differential, MinimizerShrinksToTheCulpritReads)
{
    // Synthetic divergence: the "bug" triggers whenever the set
    // contains both poison reads.  The minimizer must shrink 60
    // reads down to exactly those two.
    ReferenceGenome ref;
    ref.addContig("c1", BaseSeq(500, 'A'));
    std::vector<Read> reads;
    for (int i = 0; i < 60; ++i) {
        Read r;
        r.name = (i == 17 || i == 43)
                     ? "poison" + std::to_string(i)
                     : "ok" + std::to_string(i);
        r.contig = 0;
        r.pos = i;
        r.setSequence("ACGT", QualSeq{30, 30, 30, 30});
        r.cigar = Cigar::simpleMatch(4);
        reads.push_back(r);
    }
    auto check = [](const ReferenceGenome &,
                    const std::vector<Read> &rs) {
        int poison = 0;
        for (const Read &r : rs)
            poison += r.name.rfind("poison", 0) == 0 ? 1 : 0;
        return poison >= 2
                   ? DiffResult::fail("synthetic", "poison pair")
                   : DiffResult{};
    };
    std::vector<Read> minimized =
        difftest::minimizeReads(ref, reads, check);
    ASSERT_EQ(minimized.size(), 2u);
    EXPECT_EQ(minimized[0].name, "poison17");
    EXPECT_EQ(minimized[1].name, "poison43");
}

TEST(Differential, KernelMinimizerDropsIrrelevantPieces)
{
    // The "bug" needs only the read "TTTT" and consensus "GGGG".
    IrTargetInput input;
    input.windowStart = 0;
    input.windowEnd = 8;
    input.consensuses = {"ACGTACGT", "GGGGGGGG", "CCCCCCCC"};
    input.events.resize(3);
    for (const char *bases : {"ACGT", "TTTT", "CACA"}) {
        input.addRead(bases, QualSeq(4, 30));
        input.readIndices.push_back(
            static_cast<uint32_t>(input.readIndices.size()));
    }
    auto check = [](const IrTargetInput &t) {
        bool read = false, cons = false;
        for (size_t j = 0; j < t.numReads(); ++j)
            read |= t.readSeqs[j].bases() == "TTTT";
        for (const BaseSeq &c : t.consensuses)
            cons |= c == "GGGGGGGG";
        return read && cons
                   ? DiffResult::fail("synthetic", "present")
                   : DiffResult{};
    };
    IrTargetInput minimized =
        difftest::minimizeKernelInput(input, check);
    ASSERT_EQ(minimized.numReads(), 1u);
    EXPECT_EQ(minimized.readSeqs[0].bases(), "TTTT");
    // Consensus 0 (the reference window) is structural and kept.
    ASSERT_EQ(minimized.numConsensuses(), 2u);
    EXPECT_EQ(minimized.consensuses[1], "GGGGGGGG");
}

TEST(Differential, CorpusReplay)
{
    std::vector<std::string> files =
        difftest::listCorpus(IRACC_CORPUS_DIR);
    ASSERT_FALSE(files.empty())
        << "no corpus cases under " << IRACC_CORPUS_DIR;
    // Every corpus case replays under every supported dispatch
    // kernel: a workload that once exposed a divergence is exactly
    // the workload a vectorized sweep must not re-break.
    for (SimdKernel kernel : supportedSimdKernels()) {
        ScopedSimdKernel scope(kernel);
        for (const std::string &path : files) {
            ReproCase repro = difftest::loadReproCase(path);
            DiffResult r = difftest::replayReproCase(repro);
            EXPECT_TRUE(r.ok)
                << path << " [kernel=" << simdKernelName(kernel)
                << "]: [" << r.variant << "] " << r.detail;
        }
    }
}

} // namespace
} // namespace iracc
