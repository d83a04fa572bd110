#include "refine/pipeline.hh"

#include "obs/obs.hh"
#include "refine/bqsr.hh"
#include "refine/duplicate_marker.hh"
#include "refine/sort.hh"

namespace iracc {

RefineResult
runRefinementPipeline(const ReferenceGenome &ref,
                      std::vector<Read> &reads,
                      const GenomeRealignStage &realigner,
                      const std::vector<Variant> &known_sites,
                      obs::Observability *obsv)
{
    RefineResult out;

    // Stage 1: coordinate sort.
    obs::ScopedSpan sort(obsv, "sort", "refine", "refine.stage.sort_ns");
    coordinateSort(reads);
    out.times.sortSeconds = sort.close();

    // Stage 2: duplicate marking.
    obs::ScopedSpan dupmark(obsv, "dupmark", "refine",
                            "refine.stage.dupmark_ns");
    out.duplicatesMarked = markDuplicates(reads);
    out.times.dupMarkSeconds = dupmark.close();

    // Stage 3: INDEL realignment (the accelerated stage).  Like
    // GATK3's IndelRealigner, the stage emits coordinate-sorted
    // output: realigned start positions move within their target
    // window, so a reorder pass restores the invariant downstream
    // stages assume.
    obs::ScopedSpan realign(obsv, "realign", "refine",
                            "refine.stage.realign_ns");
    out.realign = realigner(ref, reads);
    coordinateSort(reads);
    out.times.realignSeconds = realign.close();

    // Stage 4: base quality score recalibration.
    obs::ScopedSpan bqsr(obsv, "bqsr", "refine", "refine.stage.bqsr_ns");
    BqsrTable table;
    table.observe(ref, reads, known_sites);
    table.recalibrate(reads);
    out.times.bqsrSeconds = bqsr.close();

    if (obsv && obsv->metrics) {
        obsv->metrics->counter("refine.duplicates_marked")
            .add(out.duplicatesMarked);
    }
    return out;
}

RefineResult
runRefinementPipeline(const ReferenceGenome &ref, int32_t contig,
                      std::vector<Read> &reads,
                      const RealignStage &realigner,
                      const std::vector<Variant> &known_sites,
                      obs::Observability *obsv)
{
    return runRefinementPipeline(
        ref, reads,
        [&](const ReferenceGenome &r, std::vector<Read> &rs) {
            return realigner(r, contig, rs);
        },
        known_sites, obsv);
}

} // namespace iracc
