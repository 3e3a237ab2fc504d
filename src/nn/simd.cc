#include "nn/simd.h"

namespace ncl::nn {
namespace internal {
namespace {

KernelSet DetectKernelSet() {
#if defined(__x86_64__)
  // Static initialisation may run before libgcc's own CPU probe.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return KernelSet::kAvx512;
  if (__builtin_cpu_supports("avx2")) return KernelSet::kAvx2;
#endif
  return KernelSet::kScalar;
}

}  // namespace

std::atomic<KernelSet> active_kernel_set{DetectKernelSet()};

}  // namespace internal

KernelSet ActiveKernelSet() { return internal::Active(); }

const char* KernelSetName(KernelSet set) {
  switch (set) {
    case KernelSet::kAvx512: return "avx512";
    case KernelSet::kAvx2: return "avx2";
    case KernelSet::kScalar: break;
  }
  return "scalar";
}

const char* SimdPathName() { return KernelSetName(ActiveKernelSet()); }

std::vector<KernelSet> RunnableKernelSets() {
  std::vector<KernelSet> sets;
  for (int s = static_cast<int>(ActiveKernelSet()); s >= 0; --s) {
    sets.push_back(static_cast<KernelSet>(s));
  }
  return sets;
}

ScopedKernelCap::ScopedKernelCap(KernelSet cap)
    : previous_(internal::active_kernel_set.load()) {
  internal::active_kernel_set.store(cap < previous_ ? cap : previous_);
}

ScopedKernelCap::~ScopedKernelCap() {
  internal::active_kernel_set.store(previous_);
}

}  // namespace ncl::nn
