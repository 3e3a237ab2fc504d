// Run-time choice between the three kernel sets behind gemm.h's NT products
// and vecmath.h's activations.
//
// gemm.cc and vecmath.cc compile those kernels for the build's baseline
// target and, on x86-64, again under [[gnu::target("avx2")]] and
// [[gnu::target("avx512f")]] (never FMA). The AVX-512 set covers what a
// decode step spends its time in (the packed panel product, the exp-family
// activations, SumExpShifted and AddBiasMax); every other kernel runs the
// AVX2 set there. The choice is made once, at start-up, from
// __builtin_cpu_supports, and every public kernel call branches on it once.
// All sets evaluate the same operations in the same order, so the choice
// changes speed, never a value's bits. The one build whose bits differ is
// the native preset (-march=native -ffast-math), which lets the compiler
// contract and reassociate.

#pragma once

#include <atomic>
#include <vector>

namespace ncl::nn {

/// The kernel sets, lowest first: each one's host also runs the ones below.
enum class KernelSet { kScalar, kAvx2, kAvx512 };

/// The kernel set this process runs: the host's best under any
/// ScopedKernelCap alive.
KernelSet ActiveKernelSet();

/// "scalar", "avx2" or "avx512".
const char* KernelSetName(KernelSet set);

/// KernelSetName(ActiveKernelSet()).
const char* SimdPathName();

/// ActiveKernelSet() and every set below it, best first: the sets a
/// ScopedKernelCap can choose from here.
std::vector<KernelSet> RunnableKernelSets();

/// Test and benchmark seam: while one is alive, every kernel call runs the
/// host's best set no higher than `cap`, so tests can compare the sets bit
/// for bit and benchmarks can time them in one process. A nested cap never
/// raises an outer one. The destructor restores the previous set. Create and
/// destroy it only while no other thread is inside the kernels.
class ScopedKernelCap {
 public:
  explicit ScopedKernelCap(KernelSet cap);
  ~ScopedKernelCap();
  ScopedKernelCap(const ScopedKernelCap&) = delete;
  ScopedKernelCap& operator=(const ScopedKernelCap&) = delete;

 private:
  KernelSet previous_;
};

namespace internal {

/// The set every kernel call runs: the host's best, found during static
/// initialisation, under any ScopedKernelCap alive. A read before then sees
/// kScalar: the same bits, only slower.
extern std::atomic<KernelSet> active_kernel_set;

inline KernelSet Active() {
  return active_kernel_set.load(std::memory_order_relaxed);
}

}  // namespace internal
}  // namespace ncl::nn
