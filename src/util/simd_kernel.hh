/**
 * @file
 * Runtime selection of the host SIMD kernel family.
 *
 * Every hot host loop that has vectorized variants -- the WHD offset
 * sweep (realign/whd_simd.hh) and the SAM-lite/FASTQ record scanners
 * (genomics/scan_kernels.hh) -- exists in three interchangeable,
 * bit-equal implementations:
 *
 *   scalar   the reference loops, one byte at a time;
 *   generic  portable code: fixed-width lanes the compiler can
 *            auto-vectorize, or SWAR over 64-bit words;
 *   avx2     hand-written AVX2 intrinsics, compiled through function
 *            target attributes and chosen only when CPUID reports
 *            AVX2.
 *
 * One process-wide choice covers all of them: it is resolved once
 * from the IRACC_KERNEL environment variable (scalar|generic|avx2)
 * or, unset, the best CPU-supported implementation.  Tests and
 * benches override it with setSimdKernel()/ScopedSimdKernel.
 */

#ifndef IRACC_UTIL_SIMD_KERNEL_HH
#define IRACC_UTIL_SIMD_KERNEL_HH

#include <cstdint>
#include <string>
#include <vector>

/**
 * The AVX2 kernels need x86-64 plus a GNU-compatible compiler (the
 * implementations use function target attributes so the rest of
 * the binary keeps its baseline ISA).  Elsewhere the AVX2 entry
 * points compile to fatal() stubs and dispatch never selects them.
 */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define IRACC_HAVE_AVX2 1
#else
#define IRACC_HAVE_AVX2 0
#endif

namespace iracc {

/** One kernel implementation (runtime-dispatch design point). */
enum class SimdKernel : uint8_t
{
    Scalar = 0,
    Generic = 1,
    Avx2 = 2,
};

/** Registry name of a kernel ("scalar" / "generic" / "avx2"). */
const char *simdKernelName(SimdKernel kernel);

/**
 * Parse a kernel name (the IRACC_KERNEL vocabulary).
 * @return false when @p name is not a known kernel.
 */
bool parseSimdKernel(const std::string &name, SimdKernel *out);

/** @return true when @p kernel was compiled into this binary. */
bool simdKernelCompiled(SimdKernel kernel);

/** @return true when @p kernel is compiled in AND this CPU runs it. */
bool simdKernelSupported(SimdKernel kernel);

/** Every supported kernel, scalar first (test/bench sweep order). */
std::vector<SimdKernel> supportedSimdKernels();

/** The fastest supported kernel (what dispatch picks by default). */
SimdKernel bestSupportedSimdKernel();

/**
 * The active kernel: resolved once per process from IRACC_KERNEL
 * (fatal() on unknown or unsupported names) or
 * bestSupportedSimdKernel() when unset.
 */
SimdKernel activeSimdKernel();

/**
 * Override the active kernel (process-wide; fatal() when
 * unsupported).  Call from a single thread before kernel work
 * starts -- tests and benches sweeping design points.
 */
void setSimdKernel(SimdKernel kernel);

/** RAII kernel override that restores the previous choice. */
class ScopedSimdKernel
{
  public:
    explicit ScopedSimdKernel(SimdKernel kernel)
        : previous(activeSimdKernel())
    {
        setSimdKernel(kernel);
    }
    ~ScopedSimdKernel() { setSimdKernel(previous); }
    ScopedSimdKernel(const ScopedSimdKernel &) = delete;
    ScopedSimdKernel &operator=(const ScopedSimdKernel &) = delete;

  private:
    SimdKernel previous;
};

} // namespace iracc

#endif // IRACC_UTIL_SIMD_KERNEL_HH
