#include "realign/whd.hh"

#include <algorithm>

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

void
WhdTarget::load(const IrTargetInput &input)
{
    const size_t num_cons = input.numConsensuses();
    cons.resize(num_cons);
    consLen.resize(num_cons);
    for (size_t i = 0; i < num_cons; ++i) {
        cons[i] = reinterpret_cast<const uint8_t *>(
            input.consensuses[i].data());
        consLen[i] = static_cast<uint32_t>(input.consensuses[i].size());
    }
    const size_t num_reads = input.numReads();
    read.resize(num_reads);
    qual.resize(num_reads);
    readLen.resize(num_reads);
    for (size_t j = 0; j < num_reads; ++j) {
        read[j] = reinterpret_cast<const uint8_t *>(
            input.readBases[j].data());
        qual[j] = input.readQuals[j].data();
        readLen[j] = static_cast<uint32_t>(input.readBases[j].size());
    }
}

namespace {

/**
 * Where consensus i's sweep of a read of length n repeats consensus
 * 0's (whd_simd.cc note 5).  Offsets [0, prefixEnd) see consensus
 * 0's windows; offsets [suffixBegin, end) see consensus 0's windows
 * at k + m_0 - m_i; only [prefixEnd, suffixBegin) must be swept.
 */
struct SharedOffsets
{
    size_t prefixEnd;
    size_t suffixBegin;
    size_t end;
};

SharedOffsets
sharedOffsets(uint32_t prefix, uint32_t suffix, size_t m, size_t n)
{
    SharedOffsets s;
    s.end = m - n + 1;
    s.prefixEnd = prefix >= n ? prefix - n + 1 : 0;
    s.suffixBegin = std::min(std::max(s.prefixEnd, m - suffix), s.end);
    return s;
}

} // anonymous namespace

WhdTargetSweep
sweepTarget(WhdTarget &t, bool prune, uint32_t pruneChunk,
            SimdKernel kernel, MinWhdGrid &grid, WhdStats &stats)
{
    const size_t num_cons = t.cons.size();
    const size_t num_reads = t.read.size();
    grid.reset(num_cons, num_reads);
    WhdTargetSweep out;
    if (num_cons == 0)
        return out;

    const uint8_t *cons0 = t.cons[0];
    const size_t m0 = t.consLen[0];
    t.prefix.resize(num_cons);
    t.suffix.resize(num_cons);
    for (size_t i = 1; i < num_cons; ++i) {
        const uint8_t *c = t.cons[i];
        const size_t len = std::min<size_t>(t.consLen[i], m0);
        size_t p = 0;
        while (p < len && c[p] == cons0[p])
            ++p;
        size_t q = 0;
        while (q < len && c[t.consLen[i] - 1 - q] == cons0[m0 - 1 - q])
            ++q;
        t.prefix[i] = static_cast<uint32_t>(p);
        t.suffix[i] = static_cast<uint32_t>(q);
    }

    WhdStats local;
    for (size_t j = 0; j < num_reads; ++j) {
        const size_t n = t.readLen[j];
        auto sweep = [&](size_t i, size_t begin, size_t end,
                         const WhdSweepResult &from) {
            local.offsetsSwept += end - begin;
            return whdSweep(t.cons[i], t.consLen[i], t.read[j],
                            t.qual[j], n, prune, pruneChunk, kernel,
                            begin, end, from);
        };
        auto record = [&](size_t i, const WhdSweepResult &r) {
            grid.set(i, j, r.best, r.bestK);
            const uint64_t offsets = t.consLen[i] - n + 1;
            local.offsetsEvaluated += offsets;
            local.comparisonsUnpruned += offsets * n;
            local.comparisons += r.comparisons;
            local.offsetsPruned += r.offsetsPruned;
            out.chunks += r.chunks;
            ++out.pairs;
        };

        // Unpruned sweeps run whole (their counters are closed
        // form), and a read longer than consensus 0 has no sweep to
        // share.  A read longer than a consensus cannot be placed
        // on it: its grid entry stays at infinity.
        if (!prune || n > m0) {
            for (size_t i = 0; i < num_cons; ++i) {
                if (n <= t.consLen[i])
                    record(i, sweep(i, 0, t.consLen[i] - n + 1, {}));
            }
            continue;
        }

        // Consensus 0, cut at every offset another consensus
        // resumes from.
        t.cuts.clear();
        for (size_t i = 1; i < num_cons; ++i) {
            const size_t m = t.consLen[i];
            if (n > m)
                continue;
            const SharedOffsets s =
                sharedOffsets(t.prefix[i], t.suffix[i], m, n);
            t.cuts.push_back(s.prefixEnd);
            if (s.suffixBegin < s.end)
                t.cuts.push_back(s.suffixBegin + m0 - m);
        }
        std::sort(t.cuts.begin(), t.cuts.end());
        t.cuts.erase(std::unique(t.cuts.begin(), t.cuts.end()),
                     t.cuts.end());
        t.states.resize(t.cuts.size());
        WhdSweepResult state;
        size_t at = 0;
        for (size_t c = 0; c < t.cuts.size(); ++c) {
            state = sweep(0, at, t.cuts[c], state);
            t.states[c] = state;
            at = t.cuts[c];
        }
        const WhdSweepResult whole = sweep(0, at, m0 - n + 1, state);
        record(0, whole);
        auto stateAt = [&t](size_t k) -> const WhdSweepResult & {
            return t.states[static_cast<size_t>(
                std::lower_bound(t.cuts.begin(), t.cuts.end(), k) -
                t.cuts.begin())];
        };

        for (size_t i = 1; i < num_cons; ++i) {
            const size_t m = t.consLen[i];
            if (n > m)
                continue;
            const SharedOffsets s =
                sharedOffsets(t.prefix[i], t.suffix[i], m, n);
            WhdSweepResult r = sweep(i, s.prefixEnd, s.suffixBegin,
                                     stateAt(s.prefixEnd));
            if (s.suffixBegin < s.end) {
                const WhdSweepResult &cut =
                    stateAt(s.suffixBegin + m0 - m);
                if (r.best == cut.best) {
                    // Same windows from the same minimum on: the
                    // suffix repeats consensus 0's.
                    r.comparisons += whole.comparisons - cut.comparisons;
                    r.offsetsPruned +=
                        whole.offsetsPruned - cut.offsetsPruned;
                    r.chunks += whole.chunks - cut.chunks;
                    if (whole.best < cut.best) {
                        r.best = whole.best;
                        r.bestK =
                            static_cast<uint32_t>(whole.bestK + m - m0);
                    }
                } else {
                    r = sweep(i, s.suffixBegin, s.end, r);
                }
            }
            record(i, r);
        }
    }

    stats.merge(local);
    return out;
}

void
minWhdInto(const IrTargetInput &input, bool prune, WhdStats *stats,
           MinWhdGrid &grid)
{
    // thread_local: minWhd runs concurrently on pipeline worker
    // threads, and reusing the rows and tables across targets kills
    // the per-call allocations.
    thread_local WhdTarget rows;
    rows.load(input);
    WhdStats unused;
    sweepTarget(rows, prune, /*pruneChunk=*/1, activeSimdKernel(),
                grid, stats ? *stats : unused);
}

MinWhdGrid
minWhd(const IrTargetInput &input, bool prune, WhdStats *stats)
{
    MinWhdGrid grid(input.numConsensuses(), input.numReads());
    minWhdInto(input, prune, stats, grid);
    return grid;
}

} // namespace iracc
