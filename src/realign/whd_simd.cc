#include "realign/whd_simd.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "realign/whd.hh"
#include "util/logging.hh"

namespace iracc {

namespace {

/**
 * Correctness notes shared by every vectorized path (the scalar
 * sweep below is the literal reference loop; generic and AVX2 are
 * proven equal to it by tests/whd_test.cc and the differential
 * harness):
 *
 * 1. Saturating accumulation folds: whdAccumulate is
 *    min(whd + q, kWhdMax), so folding it over any sequence of
 *    qualities equals min(plain 64-bit sum, kWhdMax).  Vectorized
 *    paths therefore accumulate plain sums in wide integers and
 *    clamp once at the end.
 * 2. Prune-point reconstruction: within one offset the running sum
 *    is monotone non-decreasing, so the scalar kernel's abort
 *    point -- the first executed comparison whose running
 *    (saturated) sum reaches the current minimum -- is the first
 *    prefix crossing.  A block whose end-of-block sum crosses the
 *    bound contains that comparison, and its exact index is all
 *    the counters need.  The generic sweep recovers it with a
 *    scalar rescan of just that block.  The AVX2 sweep finds it
 *    in-register: with T = best - whd at the block start, the
 *    block's inclusive 16-bit prefix sums are compared against
 *    T - 1 and the first set lane is the abort.  The block
 *    crosses, so T <= blockSum <= 32 * 255 = 8160 < 2^15 and the
 *    signed 16-bit compare cannot wrap.
 * 3. Plain-vs-saturated compares: for best <= kWhdMax,
 *    min(sum, kWhdMax) >= best iff sum >= best; for
 *    best == kWhdInfinity the saturated value (<= kWhdMax) never
 *    reaches it.  Vectorized prune checks therefore use plain
 *    64-bit sums guarded by best != kWhdInfinity.  The per-chunk
 *    sweeps drop the guard: they hold the minimum in 64 bits with
 *    an all-ones "no minimum yet" sentinel, which no plain sum
 *    reaches (whd <= n * 255 < 2^64 - 1), so whd >= best is one
 *    exact compare and a found minimum (<= kWhdMax) narrows back
 *    to the 32-bit result.
 */

bool
cpuHasAvx2()
{
#if IRACC_WHD_HAVE_AVX2
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

/**
 * The reference sweep: the software kernel's per-comparison loop
 * (pruneChunk == 1) and the hardware datapath's per-chunk loop
 * (pruneChunk == width) are the same code shape -- one running
 * minimum check per pruneChunk-base chunk, counters ticking as the
 * chunk executes.
 */
WhdSweepResult
sweepScalar(const uint8_t *cons, size_t m, const uint8_t *read,
            const uint8_t *qual, size_t n, bool prune,
            uint32_t pruneChunk)
{
    WhdSweepResult r;
    for (size_t k = 0; k + n <= m; ++k) {
        uint32_t whd = 0;
        bool pruned = false;
        for (size_t chunk = 0; chunk < n; chunk += pruneChunk) {
            const size_t lanes =
                std::min<size_t>(pruneChunk, n - chunk);
            ++r.chunks;
            r.comparisons += lanes;
            for (size_t lane = 0; lane < lanes; ++lane) {
                const size_t p = chunk + lane;
                if (cons[k + p] != read[p])
                    whd = whdAccumulate(whd, qual[p]);
            }
            // The running-minimum register is checked once per
            // chunk (once per comparison at pruneChunk == 1):
            // computation pruning.
            if (prune && whd >= r.best) {
                pruned = true;
                break;
            }
        }
        if (pruned) {
            ++r.offsetsPruned;
            continue;
        }
        if (whd < r.best) {
            r.best = whd;
            r.bestK = static_cast<uint32_t>(k);
        }
    }
    return r;
}

/** Exact WHD of a single offset: plain 64-bit sum, clamped once. */
uint32_t
offsetWhd(const uint8_t *cons_k, const uint8_t *read,
          const uint8_t *qual, size_t n)
{
    uint64_t sum = 0;
    for (size_t p = 0; p < n; ++p)
        sum += (cons_k[p] != read[p]) ? qual[p] : 0;
    return sum > kWhdMax ? kWhdMax : static_cast<uint32_t>(sum);
}

/**
 * Branchless mismatch-quality sum over one block (<= a few KiB so
 * the 32-bit partial cannot overflow).  Eight bases per step in a
 * 64-bit word (SWAR): XOR the consensus and read words, turn each
 * nonzero byte into 0xFF, AND with the qualities, then add the
 * eight masked bytes with one multiply.
 */
uint32_t
blockSum(const uint8_t *cons_p, const uint8_t *read_p,
         const uint8_t *qual_p, size_t len)
{
    constexpr uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
    constexpr uint64_t kHigh = 0x8080808080808080ull;
    constexpr uint64_t kEven = 0x00FF00FF00FF00FFull;
    uint32_t sum = 0;
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        uint64_t c, r, q;
        std::memcpy(&c, cons_p + i, 8);
        std::memcpy(&r, read_p + i, 8);
        std::memcpy(&q, qual_p + i, 8);
        const uint64_t x = c ^ r;
        // High bit of each byte set iff that byte of x is nonzero;
        // the 7-bit add cannot carry across bytes.
        const uint64_t ne = (((x & kLow7) + kLow7) | x) & kHigh;
        const uint64_t v = q & ((ne >> 7) * 0xFF);
        // Pairwise into four 16-bit lanes (each <= 510), then the
        // multiply sums the lanes into the top 16 bits (<= 2040).
        const uint64_t pairs = (v & kEven) + ((v >> 8) & kEven);
        sum += static_cast<uint32_t>(
            (pairs * 0x0001000100010001ull) >> 48);
    }
    for (; i < len; ++i)
        sum += (cons_p[i] != read_p[i]) ? qual_p[i] : 0;
    return sum;
}

/**
 * Unpruned generic sweep: kWhdGenericLanes offsets advance
 * together.  For base p the consensus bytes the lanes need --
 * cons[k0+l+p] for l in [0, L) -- are contiguous, so the inner loop
 * is a straight-line compare/mask/add over adjacent bytes that any
 * vectorizer handles.  Lanes accumulate 32-bit partials inside
 * superchunks short enough not to overflow, spilling to 64-bit.
 */
void
unprunedLanesGeneric(const uint8_t *cons_k0, const uint8_t *read,
                     const uint8_t *qual, size_t n,
                     uint64_t acc[kWhdGenericLanes])
{
    constexpr size_t kSuper = 65535; // 65535 * 255 < 2^32
    for (size_t l = 0; l < kWhdGenericLanes; ++l)
        acc[l] = 0;
    for (size_t start = 0; start < n; start += kSuper) {
        const size_t end = std::min(n, start + kSuper);
        uint32_t part[kWhdGenericLanes] = {};
        for (size_t p = start; p < end; ++p) {
            const uint8_t rb = read[p];
            const uint8_t q = qual[p];
            const uint8_t *c = cons_k0 + p;
            for (size_t l = 0; l < kWhdGenericLanes; ++l)
                part[l] += (c[l] != rb) ? q : 0;
        }
        for (size_t l = 0; l < kWhdGenericLanes; ++l)
            acc[l] += part[l];
    }
}

/** Fold one lane block's results into the running minimum. */
void
mergeLanes(const uint64_t acc[], size_t lanes, size_t k0,
           WhdSweepResult &r)
{
    for (size_t l = 0; l < lanes; ++l) {
        const uint32_t v = acc[l] > kWhdMax
                               ? kWhdMax
                               : static_cast<uint32_t>(acc[l]);
        // Strict <: the first minimal offset wins, and blocks are
        // visited in ascending k.
        if (v < r.best) {
            r.best = v;
            r.bestK = static_cast<uint32_t>(k0 + l);
        }
    }
}

WhdSweepResult
sweepUnprunedGeneric(const uint8_t *cons, size_t m,
                     const uint8_t *read, const uint8_t *qual,
                     size_t n)
{
    WhdSweepResult r;
    const size_t offsets = m - n + 1;
    size_t k0 = 0;
    uint64_t acc[kWhdGenericLanes];
    for (; k0 + kWhdGenericLanes <= offsets; k0 += kWhdGenericLanes) {
        unprunedLanesGeneric(cons + k0, read, qual, n, acc);
        mergeLanes(acc, kWhdGenericLanes, k0, r);
    }
    // Scalar tail: fewer than kWhdGenericLanes offsets remain (a
    // full lane block would read past the consensus).
    for (; k0 < offsets; ++k0) {
        const uint32_t v = offsetWhd(cons + k0, read, qual, n);
        if (v < r.best) {
            r.best = v;
            r.bestK = static_cast<uint32_t>(k0);
        }
    }
    return r;
}

/**
 * Pruned sweep with per-comparison (software) semantics: evaluate
 * each offset in branchless blocks; when a block's end-of-sum
 * crosses the running minimum, rescan that block scalar to recover
 * the exact abort comparison for the counters (notes 2/3 above).
 */
template <size_t Block,
          uint32_t (*BlockSumFn)(const uint8_t *, const uint8_t *,
                                 const uint8_t *, size_t)>
WhdSweepResult
sweepPrunedPerComparison(const uint8_t *cons, size_t m,
                         const uint8_t *read, const uint8_t *qual,
                         size_t n)
{
    WhdSweepResult r;
    for (size_t k = 0; k + n <= m; ++k) {
        uint64_t whd = 0;
        bool pruned = false;
        for (size_t chunk = 0; chunk < n && !pruned;
             chunk += Block) {
            const size_t lanes = std::min<size_t>(Block, n - chunk);
            const uint32_t bs = BlockSumFn(cons + k + chunk,
                                           read + chunk,
                                           qual + chunk, lanes);
            if (r.best != kWhdInfinity && whd + bs >= r.best) {
                // The abort comparison is inside this block.
                size_t p = chunk;
                for (;; ++p) {
                    if (cons[k + p] != read[p])
                        whd += qual[p];
                    if (whd >= r.best)
                        break;
                }
                r.comparisons += p + 1;
                r.chunks += p + 1; // chunk == comparison here
                ++r.offsetsPruned;
                pruned = true;
                break;
            }
            whd += bs;
        }
        if (pruned)
            continue;
        r.comparisons += n;
        r.chunks += n;
        const uint32_t v =
            whd > kWhdMax ? kWhdMax : static_cast<uint32_t>(whd);
        if (v < r.best) {
            r.best = v;
            r.bestK = static_cast<uint32_t>(k);
        }
    }
    return r;
}

/**
 * Pruned sweep with per-chunk (hardware datapath) semantics: the
 * running minimum is checked at pruneChunk-base granularity, and a
 * pruned offset charges the whole chunk that crossed -- the block
 * sum IS the datapath's per-cycle work, no rescan needed.  The
 * minimum is held in 64 bits with an all-ones "none yet" sentinel
 * (note 3) and the counters in locals, written to the result once
 * per call.
 */
template <uint32_t (*BlockSumFn)(const uint8_t *, const uint8_t *,
                                 const uint8_t *, size_t)>
WhdSweepResult
sweepPrunedPerChunk(const uint8_t *cons, size_t m,
                    const uint8_t *read, const uint8_t *qual,
                    size_t n, uint32_t pruneChunk)
{
    constexpr uint64_t kNoMinimum = ~static_cast<uint64_t>(0);
    uint64_t best = kNoMinimum;
    uint32_t bestK = 0;
    uint64_t comparisons = 0;
    uint64_t chunks = 0;
    uint64_t offsetsPruned = 0;
    for (size_t k = 0; k + n <= m; ++k) {
        uint64_t whd = 0;
        size_t chunk = 0;
        bool pruned = false;
        while (chunk < n && !pruned) {
            const size_t lanes =
                std::min<size_t>(pruneChunk, n - chunk);
            whd += BlockSumFn(cons + k + chunk, read + chunk,
                              qual + chunk, lanes);
            ++chunks;
            chunk += lanes;
            pruned = whd >= best;
        }
        comparisons += chunk;
        if (pruned) {
            ++offsetsPruned;
            continue;
        }
        const uint64_t v = std::min<uint64_t>(whd, kWhdMax);
        if (v < best) {
            best = v;
            bestK = static_cast<uint32_t>(k);
        }
    }
    WhdSweepResult r;
    r.best = best == kNoMinimum ? kWhdInfinity
                                : static_cast<uint32_t>(best);
    r.bestK = bestK;
    r.comparisons = comparisons;
    r.chunks = chunks;
    r.offsetsPruned = offsetsPruned;
    return r;
}

/** Unpruned counters are a pure function of the sweep shape. */
void
fillUnprunedCounters(WhdSweepResult &r, size_t m, size_t n,
                     uint32_t pruneChunk)
{
    const uint64_t offsets = m - n + 1;
    r.comparisons = offsets * n;
    r.offsetsPruned = 0;
    r.chunks = n == 0 ? 0
                      : offsets * ((n + pruneChunk - 1) / pruneChunk);
}

std::atomic<int> activeKernel{-1};

WhdKernel
resolveActiveKernel()
{
    const char *env = std::getenv("IRACC_KERNEL");
    if (env == nullptr || *env == '\0')
        return bestSupportedWhdKernel();
    WhdKernel k;
    if (!parseWhdKernel(env, &k)) {
        fatal("IRACC_KERNEL='%s' is not a WHD kernel "
              "(scalar|generic|avx2)", env);
    }
    if (!whdKernelSupported(k)) {
        fatal("IRACC_KERNEL=%s is not supported here (%s)",
              whdKernelName(k),
              whdKernelCompiled(k) ? "CPU lacks the instruction set"
                                   : "not compiled into this binary");
    }
    return k;
}

} // anonymous namespace

const char *
whdKernelName(WhdKernel kernel)
{
    switch (kernel) {
      case WhdKernel::Scalar:
        return "scalar";
      case WhdKernel::Generic:
        return "generic";
      case WhdKernel::Avx2:
        return "avx2";
    }
    return "unknown";
}

bool
parseWhdKernel(const std::string &name, WhdKernel *out)
{
    for (WhdKernel k : {WhdKernel::Scalar, WhdKernel::Generic,
                        WhdKernel::Avx2}) {
        if (name == whdKernelName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

bool
whdKernelCompiled(WhdKernel kernel)
{
    switch (kernel) {
      case WhdKernel::Scalar:
      case WhdKernel::Generic:
        return true;
      case WhdKernel::Avx2:
        return IRACC_WHD_HAVE_AVX2 != 0;
    }
    return false;
}

bool
whdKernelSupported(WhdKernel kernel)
{
    if (!whdKernelCompiled(kernel))
        return false;
    return kernel != WhdKernel::Avx2 || cpuHasAvx2();
}

std::vector<WhdKernel>
supportedWhdKernels()
{
    std::vector<WhdKernel> out;
    for (WhdKernel k : {WhdKernel::Scalar, WhdKernel::Generic,
                        WhdKernel::Avx2}) {
        if (whdKernelSupported(k))
            out.push_back(k);
    }
    return out;
}

WhdKernel
bestSupportedWhdKernel()
{
    return whdKernelSupported(WhdKernel::Avx2) ? WhdKernel::Avx2
                                               : WhdKernel::Generic;
}

WhdKernel
activeWhdKernel()
{
    int v = activeKernel.load(std::memory_order_relaxed);
    if (v < 0) {
        // Benign race: every thread resolves the same value.
        v = static_cast<int>(resolveActiveKernel());
        activeKernel.store(v, std::memory_order_relaxed);
    }
    return static_cast<WhdKernel>(v);
}

void
setWhdKernel(WhdKernel kernel)
{
    if (!whdKernelSupported(kernel))
        fatal("WHD kernel %s is not supported on this host",
              whdKernelName(kernel));
    activeKernel.store(static_cast<int>(kernel),
                       std::memory_order_relaxed);
}

WhdSweepResult
whdSweep(const uint8_t *cons, size_t m, const uint8_t *read,
         const uint8_t *qual, size_t n, bool prune,
         uint32_t pruneChunk, WhdKernel kernel)
{
    panic_if(n > m, "whdSweep: read length %zu overruns consensus "
             "length %zu", n, m);
    panic_if(pruneChunk == 0, "whdSweep: pruneChunk must be >= 1");

    if (kernel == WhdKernel::Avx2 && !cpuHasAvx2())
        kernel = WhdKernel::Generic;

    switch (kernel) {
      case WhdKernel::Scalar:
        return sweepScalar(cons, m, read, qual, n, prune,
                           pruneChunk);

      case WhdKernel::Generic:
        if (!prune) {
            WhdSweepResult r =
                sweepUnprunedGeneric(cons, m, read, qual, n);
            fillUnprunedCounters(r, m, n, pruneChunk);
            return r;
        }
        if (pruneChunk == 1) {
            return sweepPrunedPerComparison<kWhdGenericPruneBlock,
                                            blockSum>(cons, m, read,
                                                      qual, n);
        }
        return sweepPrunedPerChunk<blockSum>(cons, m, read, qual, n,
                                             pruneChunk);

      case WhdKernel::Avx2: {
        if (!prune) {
            WhdSweepResult r =
                whdSweepUnprunedAvx2(cons, m, read, qual, n);
            fillUnprunedCounters(r, m, n, pruneChunk);
            return r;
        }
        return whdSweepPrunedAvx2(cons, m, read, qual, n,
                                  pruneChunk);
      }
    }
    fatal("whdSweep: unknown kernel %d", static_cast<int>(kernel));
}

#if !IRACC_WHD_HAVE_AVX2
// Stubs keep the link closed on non-x86 / non-GNU toolchains; the
// dispatch layer never routes here (whdKernelSupported is false).
WhdSweepResult
whdSweepUnprunedAvx2(const uint8_t *, size_t, const uint8_t *,
                     const uint8_t *, size_t)
{
    fatal("AVX2 WHD kernel is not compiled into this binary");
}

WhdSweepResult
whdSweepPrunedAvx2(const uint8_t *, size_t, const uint8_t *,
                   const uint8_t *, size_t, uint32_t)
{
    fatal("AVX2 WHD kernel is not compiled into this binary");
}
#endif

} // namespace iracc
