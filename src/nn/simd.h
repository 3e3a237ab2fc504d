// Run-time choice between the two kernel sets behind gemm.h's NT products
// and vecmath.h's activations.
//
// gemm.cc and vecmath.cc compile those kernels twice: once for the build's
// baseline target, and on x86-64 once more under [[gnu::target("avx2")]]
// (no FMA). The choice is made once, at start-up, from
// __builtin_cpu_supports("avx2"), and every public kernel call branches on it
// once. Both sets evaluate the same operations in the same order, so the
// choice changes speed, never a value's bits. The one build whose bits
// differ is the native preset (-march=native -ffast-math), which lets the
// compiler contract and reassociate.

#pragma once

#include <atomic>

namespace ncl::nn {

/// The kernel set this process runs: "avx2" or "scalar".
const char* SimdPathName();

/// Test seam: while one is alive, every kernel call runs the scalar set,
/// even on an AVX2 host, so tests can compare the two sets bit for bit.
/// The destructor restores the previous choice. Create and destroy it only
/// while no other thread is inside the kernels.
class ScopedScalarKernels {
 public:
  ScopedScalarKernels();
  ~ScopedScalarKernels();
  ScopedScalarKernels(const ScopedScalarKernels&) = delete;
  ScopedScalarKernels& operator=(const ScopedScalarKernels&) = delete;

 private:
  bool previous_;
};

namespace internal {

/// Whether the host supports AVX2, set once during static initialisation.
/// A read before then sees false: the scalar set, same bits, only slower.
extern const bool kHostAvx2;
/// Set by ScopedScalarKernels.
extern std::atomic<bool> force_scalar;

/// True when a kernel call should run the AVX2 set.
inline bool UseAvx2Kernels() {
  return kHostAvx2 && !force_scalar.load(std::memory_order_relaxed);
}

}  // namespace internal
}  // namespace ncl::nn
