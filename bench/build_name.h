// Which build a bench binary came from, for its report's "build" field:
// kernel timings of the default build and of the native preset
// (-march=native -ffast-math) are not comparable. The preset adds
// -fno-finite-math-only, which leaves __FAST_MATH__ undefined, so the test
// is -ffast-math's reassociation, as in tests/nn/simd_parity_test.cc.

#pragma once

namespace ncl::bench {

#if defined(__ASSOCIATIVE_MATH__)
inline constexpr const char* kBuildName = "native";
#else
inline constexpr const char* kBuildName = "default";
#endif

}  // namespace ncl::bench
