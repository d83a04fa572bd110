#include "realign/whd.hh"

#include <algorithm>

#include "realign/whd_simd.hh"
#include "util/logging.hh"

namespace iracc {

MinWhdGrid::MinWhdGrid(size_t num_cons, size_t num_reads)
    : cons(num_cons), reads(num_reads),
      vals(num_cons * num_reads, kWhdInfinity),
      idxs(num_cons * num_reads, 0)
{
}

void
MinWhdGrid::reset(size_t num_cons, size_t num_reads)
{
    cons = num_cons;
    reads = num_reads;
    vals.assign(num_cons * num_reads, kWhdInfinity);
    idxs.assign(num_cons * num_reads, 0);
}

bool
MinWhdGrid::operator==(const MinWhdGrid &o) const
{
    return cons == o.cons && reads == o.reads && vals == o.vals &&
           idxs == o.idxs;
}

uint32_t
calcWhd(const BaseSeq &cons, const BaseSeq &read, const QualSeq &quals,
        size_t k)
{
    panic_if(k + read.size() > cons.size(),
             "calcWhd offset %zu overruns consensus", k);
    uint32_t whd = 0;
    for (size_t n = 0; n < read.size(); ++n) {
        if (cons[k + n] != read[n])
            whd = whdAccumulate(whd, quals[n]);
    }
    return whd;
}

namespace {

/**
 * Per-target consensus view, hoisted once so the batch loop over
 * reads touches plain pointers instead of std::string internals.
 * thread_local: minWhd runs concurrently on pipeline worker
 * threads, and reusing the scratch across targets kills the
 * per-call allocations.
 */
struct ConsensusBatch
{
    std::vector<const uint8_t *> data;
    std::vector<size_t> len;

    void
    load(const IrTargetInput &input)
    {
        const size_t num_cons = input.numConsensuses();
        data.resize(num_cons);
        len.resize(num_cons);
        for (size_t i = 0; i < num_cons; ++i) {
            data[i] = reinterpret_cast<const uint8_t *>(
                input.consensuses[i].data());
            len[i] = input.consensuses[i].size();
        }
    }
};

} // anonymous namespace

void
minWhdInto(const IrTargetInput &input, bool prune, WhdStats *stats,
           MinWhdGrid &grid)
{
    const size_t num_cons = input.numConsensuses();
    const size_t num_reads = input.numReads();
    grid.reset(num_cons, num_reads);

    const SimdKernel kernel = activeSimdKernel();
    thread_local ConsensusBatch batch;
    batch.load(input);

    WhdStats local;
    // Batch order: read-outer so each read's pointers are fetched
    // once and scored against the whole consensus batch.  Counter
    // merges are commutative sums and each (i, j) pair's sweep is
    // independent, so the grid and WhdStats are identical to the
    // consensus-outer order.
    for (size_t j = 0; j < num_reads; ++j) {
        const uint8_t *read = reinterpret_cast<const uint8_t *>(
            input.readBases[j].data());
        const uint8_t *qual = input.readQuals[j].data();
        const size_t n = input.readBases[j].size();
        for (size_t i = 0; i < num_cons; ++i) {
            const size_t m = batch.len[i];
            if (n > m) {
                // Read cannot be placed on this consensus; leave the
                // grid entry at infinity (never wins a comparison).
                continue;
            }
            const WhdSweepResult r = whdSweep(
                batch.data[i], m, read, qual, n, prune,
                /*pruneChunk=*/1, kernel);
            grid.set(i, j, r.best, r.bestK);
            const uint64_t offsets = m - n + 1;
            local.offsetsEvaluated += offsets;
            local.comparisonsUnpruned += offsets * n;
            local.comparisons += r.comparisons;
            local.offsetsPruned += r.offsetsPruned;
        }
    }

    if (stats)
        stats->merge(local);
}

MinWhdGrid
minWhd(const IrTargetInput &input, bool prune, WhdStats *stats)
{
    MinWhdGrid grid(input.numConsensuses(), input.numReads());
    minWhdInto(input, prune, stats, grid);
    return grid;
}

} // namespace iracc
