#include "core/workload.hh"

#include "util/logging.hh"

namespace iracc {

const ChromosomeWorkload &
GenomeWorkload::chromosome(int n) const
{
    for (const auto &c : chromosomes)
        if (c.number == n)
            return c;
    panic("chromosome %d not in workload", n);
}

int64_t
GenomeWorkload::totalReads() const
{
    int64_t total = 0;
    for (const auto &c : chromosomes)
        total += static_cast<int64_t>(c.reads.size());
    return total;
}

std::vector<Read>
GenomeWorkload::allReads() const
{
    std::vector<Read> reads;
    reads.reserve(static_cast<size_t>(totalReads()));
    for (const auto &c : chromosomes)
        reads.insert(reads.end(), c.reads.begin(), c.reads.end());
    return reads;
}

GenomeWorkload
buildWorkload(const WorkloadParams &params)
{
    GenomeWorkload wl;
    Rng rng(params.seed);

    std::vector<int> numbers = params.chromosomes;
    if (numbers.empty()) {
        for (int n = 1; n <= kNumAutosomes; ++n)
            numbers.push_back(n);
    }

    auto karyotype = scaledKaryotype(params.scaleDivisor,
                                     params.minContigLength);

    for (int n : numbers) {
        fatal_if(n < 1 || n > kNumAutosomes,
                 "chromosome %d out of range", n);
        const ScaledContig &sc = karyotype[static_cast<size_t>(n - 1)];

        // Per-chromosome RNG forked deterministically so adding or
        // dropping chromosomes never perturbs the others.
        Rng chr_rng(params.seed ^ (0x9E3779B97F4A7C15ull *
                                   static_cast<uint64_t>(n)));

        BaseSeq seq = ReferenceGenome::randomSequence(sc.length,
                                                      chr_rng);
        int32_t contig = wl.reference.addContig(sc.name,
                                                std::move(seq));

        ChromosomeWorkload cw;
        cw.number = n;
        cw.contig = contig;
        cw.truth = generateVariants(wl.reference.contig(contig).seq,
                                    contig, params.variants, chr_rng);

        ReadSimParams sim = params.readSim;
        sim.coverage = params.coverage;
        ReadSimulator simulator(sim, chr_rng.next());
        SimulatedReads sr = simulator.simulateContig(wl.reference,
                                                     contig,
                                                     cw.truth);
        cw.reads = std::move(sr.reads);
        cw.misalignedIndelReads = sr.misalignedIndelReads;
        cw.indelSpanningReads = sr.indelSpanningReads;

        if (params.normalCoverage > 0.0) {
            // The matched normal carries the germline variants
            // only -- somatic events are tumor-private.
            std::vector<Variant> germline;
            for (const Variant &v : cw.truth)
                if (!v.isSomatic)
                    germline.push_back(v);
            ReadSimParams nsim = params.readSim;
            nsim.coverage = params.normalCoverage;
            ReadSimulator nsimulator(nsim, chr_rng.next());
            SimulatedReads nr = nsimulator.simulateContig(
                wl.reference, contig, germline);
            for (Read &r : nr.reads)
                r.name = "N" + r.name;
            cw.normalReads = std::move(nr.reads);
        }
        wl.chromosomes.push_back(std::move(cw));
    }
    return wl;
}

} // namespace iracc
