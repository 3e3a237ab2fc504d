#include "nn/simd.h"

namespace ncl::nn {
namespace internal {
namespace {

bool DetectAvx2() {
#if defined(__x86_64__)
  // Static initialisation may run before libgcc's own CPU probe.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

const bool kHostAvx2 = DetectAvx2();
std::atomic<bool> force_scalar{false};

}  // namespace internal

const char* SimdPathName() {
  return internal::UseAvx2Kernels() ? "avx2" : "scalar";
}

ScopedScalarKernels::ScopedScalarKernels()
    : previous_(internal::force_scalar.exchange(true)) {}

ScopedScalarKernels::~ScopedScalarKernels() {
  internal::force_scalar.store(previous_);
}

}  // namespace ncl::nn
