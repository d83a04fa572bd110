#include "util/simd_kernel.hh"

#include <atomic>
#include <cstdlib>

#include "util/logging.hh"

namespace iracc {

namespace {

bool
cpuHasAvx2()
{
#if IRACC_HAVE_AVX2
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

std::atomic<int> activeKernel{-1};

SimdKernel
resolveActiveKernel()
{
    const char *env = std::getenv("IRACC_KERNEL");
    if (env == nullptr || *env == '\0')
        return bestSupportedSimdKernel();
    SimdKernel k;
    if (!parseSimdKernel(env, &k)) {
        fatal("IRACC_KERNEL='%s' is not a SIMD kernel "
              "(scalar|generic|avx2)", env);
    }
    if (!simdKernelSupported(k)) {
        fatal("IRACC_KERNEL=%s is not supported here (%s)",
              simdKernelName(k),
              simdKernelCompiled(k) ? "CPU lacks the instruction set"
                                    : "not compiled into this binary");
    }
    return k;
}

} // anonymous namespace

const char *
simdKernelName(SimdKernel kernel)
{
    switch (kernel) {
      case SimdKernel::Scalar:
        return "scalar";
      case SimdKernel::Generic:
        return "generic";
      case SimdKernel::Avx2:
        return "avx2";
    }
    return "unknown";
}

bool
parseSimdKernel(const std::string &name, SimdKernel *out)
{
    for (SimdKernel k : {SimdKernel::Scalar, SimdKernel::Generic,
                         SimdKernel::Avx2}) {
        if (name == simdKernelName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

bool
simdKernelCompiled(SimdKernel kernel)
{
    switch (kernel) {
      case SimdKernel::Scalar:
      case SimdKernel::Generic:
        return true;
      case SimdKernel::Avx2:
        return IRACC_HAVE_AVX2 != 0;
    }
    return false;
}

bool
simdKernelSupported(SimdKernel kernel)
{
    if (!simdKernelCompiled(kernel))
        return false;
    return kernel != SimdKernel::Avx2 || cpuHasAvx2();
}

std::vector<SimdKernel>
supportedSimdKernels()
{
    std::vector<SimdKernel> out;
    for (SimdKernel k : {SimdKernel::Scalar, SimdKernel::Generic,
                         SimdKernel::Avx2}) {
        if (simdKernelSupported(k))
            out.push_back(k);
    }
    return out;
}

SimdKernel
bestSupportedSimdKernel()
{
    return simdKernelSupported(SimdKernel::Avx2) ? SimdKernel::Avx2
                                                 : SimdKernel::Generic;
}

SimdKernel
activeSimdKernel()
{
    int v = activeKernel.load(std::memory_order_relaxed);
    if (v < 0) {
        // Benign race: every thread resolves the same value.
        v = static_cast<int>(resolveActiveKernel());
        activeKernel.store(v, std::memory_order_relaxed);
    }
    return static_cast<SimdKernel>(v);
}

void
setSimdKernel(SimdKernel kernel)
{
    if (!simdKernelSupported(kernel))
        fatal("SIMD kernel %s is not supported on this host",
              simdKernelName(kernel));
    activeKernel.store(static_cast<int>(kernel),
                       std::memory_order_relaxed);
}

} // namespace iracc
