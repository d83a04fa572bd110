#include "realign/whd.hh"

#include <algorithm>

#include "realign/limits.hh"
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

/**
 * Chunk rows of consensus i's windows at offsets [lo, hi) into
 * t.windowRows (whd_simd.cc note 5): chunk c of offset k is
 * consensus 0's row entry at k where its bytes lie in the shared
 * prefix, at k + m_0 - m_i where they lie in the shared suffix, and
 * is summed from consensus i's bytes otherwise.
 */
void
fillWindowRows(WhdTarget &t, size_t i, size_t j, size_t stride,
               size_t lo, size_t hi, const WhdRowKernels &kernels)
{
    const size_t n = t.readLen[j];
    const size_t m0 = t.consLen[0];
    const size_t m = t.consLen[i];
    const size_t offsets0 = m0 - n + 1;
    const size_t prefix = t.prefix[i];
    const size_t sharedFrom = m - t.suffix[i];
    for (size_t cs = 0, c = 0; cs < n; cs += kWhdPruneBlock, ++c) {
        const size_t ce = std::min(n, cs + kWhdPruneBlock);
        const uint16_t *row0 = t.rows.data() + c * stride;
        uint16_t *row = t.windowRows.data() + c * stride;
        // Prefix: k + ce <= P, and consensus 0 has offset k.
        size_t a = lo;
        if (prefix >= ce)
            a = std::max(lo, std::min({hi, prefix - ce + 1, offsets0}));
        // Suffix: k + cs >= m_i - S, and consensus 0 has offset
        // k + m_0 - m_i.
        const size_t fromSuffix =
            std::max(sharedFrom > cs ? sharedFrom - cs : 0,
                     m > m0 ? m - m0 : 0);
        const size_t b = std::max(a, std::min(hi, fromSuffix));
        std::copy(row0 + lo, row0 + a, row + lo);
        if (a < b)
            kernels.chunkRow(t.cons[i] + a + cs, t.read[j] + cs,
                             t.qual[j] + cs, ce - cs, b - a, row + a);
        if (b < hi)
            std::copy(row0 + (b + m0 - m), row0 + (hi + m0 - m),
                      row + b);
    }
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
    size_t maxLen = m0;
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
        maxLen = std::max<size_t>(maxLen, t.consLen[i]);
    }

    const WhdRowKernels kernels = whdRowKernels(kernel);
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

        // At width 32 every window is replayed from chunk rows
        // (whd_simd.cc note 5): consensus 0's rows are summed once,
        // over every offset, and each other consensus sums only the
        // chunks that touch its indel.  Row entries past a range's
        // last offset are padding the replay masks out.
        const bool replay = pruneChunk == kWhdPruneBlock && n != 0 &&
                            n <= kMaxReadLen;
        const size_t stride = maxLen - n + 1 + kWhdLanes;
        if (replay) {
            const size_t rowsLen =
                (n + kWhdPruneBlock - 1) / kWhdPruneBlock * stride;
            if (t.rows.size() < rowsLen) {
                t.rows.resize(rowsLen);
                t.windowRows.resize(rowsLen);
            }
            for (size_t cs = 0, c = 0; cs < n;
                 cs += kWhdPruneBlock, ++c)
                kernels.chunkRow(cons0 + cs, t.read[j] + cs,
                                 t.qual[j] + cs,
                                 std::min(n - cs, kWhdPruneBlock),
                                 m0 - n + 1, t.rows.data() + c * stride);
        }
        // Offsets [begin, end) replayed from @p rows, whose entry
        // @p at holds offset begin.
        auto replayRange = [&](const std::vector<uint16_t> &rows,
                              size_t begin, size_t end, size_t at,
                              const WhdSweepResult &from) {
            local.offsetsSwept += end - begin;
            if (begin == end)
                return from;
            return whdContinue(from, begin,
                               kernels.replayRows(rows.data() + at,
                                                  stride, n, end - begin,
                                                  from.best));
        };

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
        auto sweep0 = [&](size_t begin, size_t end,
                          const WhdSweepResult &from) {
            return replay ? replayRange(t.rows, begin, end, begin, from)
                          : sweep(0, begin, end, from);
        };
        WhdSweepResult state;
        size_t at = 0;
        for (size_t c = 0; c < t.cuts.size(); ++c) {
            state = sweep0(at, t.cuts[c], state);
            t.states[c] = state;
            at = t.cuts[c];
        }
        const WhdSweepResult whole = sweep0(at, m0 - n + 1, state);
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
            const WhdSweepResult &start = stateAt(s.prefixEnd);
            WhdSweepResult r;
            if (replay) {
                fillWindowRows(t, i, j, stride, s.prefixEnd,
                               s.suffixBegin, kernels);
                r = replayRange(t.windowRows, s.prefixEnd,
                                s.suffixBegin, s.prefixEnd, start);
            } else {
                r = sweep(i, s.prefixEnd, s.suffixBegin, start);
            }
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
                } else if (replay) {
                    // Consensus 0's windows at k + m_0 - m_i, against
                    // this consensus's own minimum.
                    r = replayRange(t.rows, s.suffixBegin, s.end,
                                    s.suffixBegin + m0 - m, r);
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
