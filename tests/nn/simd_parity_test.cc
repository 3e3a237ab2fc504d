// Parity of the two kernel sets (simd.h): on an AVX2 host, every NT product
// (row-major and packed), dot, activation and reduction must give the same
// bits with the AVX2 set chosen and with the scalar set forced. Shapes cover
// every tile and tail path: m and n below, at and past the 4-wide register
// tile and the 8-column panel, k below, at and past the 8-wide vector step,
// n = 1,828 (the perfbench vocabulary) and k = 96 (the composite width at
// d = 32). Each case skips on a host without AVX2, where only the scalar
// set runs, and in a -ffast-math build (the native preset), where GCC
// contracts and reassociates each set differently; CI fails the tier-1 job
// on any skip here.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "nn/gemm.h"
#include "nn/simd.h"
#include "nn/vecmath.h"
#include "util/random.h"

namespace ncl::nn {
namespace {

bool Avx2Runs() { return std::string_view(SimdPathName()) == "avx2"; }

constexpr const char* kNoAvx2 = "host has no AVX2: only the scalar set runs";

/// Why the two sets cannot be compared here, or null when they can.
const char* SkipReason() {
#if defined(__ASSOCIATIVE_MATH__)
  return "-ffast-math build: the two sets' bits differ by design";
#else
  return Avx2Runs() ? nullptr : kNoAvx2;
#endif
}

std::vector<float> RandomBuffer(size_t n, Rng& rng, double stddev = 1.0) {
  std::vector<float> buf(n);
  for (float& v : buf) v = static_cast<float>(rng.Normal(0.0, stddev));
  return buf;
}

/// Runs `fn` on the AVX2 set, then with the scalar set forced; returns both
/// results.
template <class Fn>
auto OnBothSets(Fn fn) {
  auto avx2 = fn();
  ScopedScalarKernels scalar;
  return std::pair(std::move(avx2), fn());
}

void ExpectSameBits(const std::vector<float>& avx2,
                    const std::vector<float>& scalar, const char* what) {
  ASSERT_EQ(avx2.size(), scalar.size());
  for (size_t i = 0; i < avx2.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(avx2[i]),
              std::bit_cast<uint32_t>(scalar[i]))
        << what << " i=" << i << ": " << avx2[i] << " vs " << scalar[i];
  }
}

const size_t kRows[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 33};
const size_t kCols[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 1828};
const size_t kDepths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 96};

TEST(SimdParityTest, ScopedScalarKernelsForcesAndRestores) {
  if (!Avx2Runs()) GTEST_SKIP() << kNoAvx2;
  {
    ScopedScalarKernels outer;
    EXPECT_STREQ(SimdPathName(), "scalar");
    {
      ScopedScalarKernels inner;
      EXPECT_STREQ(SimdPathName(), "scalar");
    }
    EXPECT_STREQ(SimdPathName(), "scalar");
  }
  EXPECT_STREQ(SimdPathName(), "avx2");
}

TEST(SimdParityTest, DotCanonical) {
  if (const char* reason = SkipReason()) GTEST_SKIP() << reason;
  Rng rng(71);
  for (size_t k : kDepths) {
    for (int trial = 0; trial < 50; ++trial) {
      auto a = RandomBuffer(k, rng);
      auto b = RandomBuffer(k, rng);
      auto [avx2, scalar] = OnBothSets([&] {
        return std::vector<float>{DotCanonical(a.data(), b.data(), k)};
      });
      ExpectSameBits(avx2, scalar, ("k=" + std::to_string(k)).c_str());
    }
  }
}

TEST(SimdParityTest, GemmNTAndAccum) {
  if (const char* reason = SkipReason()) GTEST_SKIP() << reason;
  Rng rng(72);
  for (size_t m : kRows) {
    for (size_t n : kCols) {
      for (size_t k : kDepths) {
        auto a = RandomBuffer(m * k, rng);
        auto b = RandomBuffer(n * k, rng);
        const auto seed = RandomBuffer(m * n, rng);
        auto [avx2, scalar] = OnBothSets([&] {
          std::vector<float> c(m * n, -1.0f);
          GemmNT(m, n, k, a.data(), k, b.data(), k, c.data(), n);
          std::vector<float> acc = seed;
          GemmNTAccum(m, n, k, a.data(), k, b.data(), k, acc.data(), n);
          c.insert(c.end(), acc.begin(), acc.end());
          return c;
        });
        const std::string shape = "m=" + std::to_string(m) +
                                  " n=" + std::to_string(n) +
                                  " k=" + std::to_string(k);
        ExpectSameBits(avx2, scalar, shape.c_str());
      }
    }
  }
}

TEST(SimdParityTest, GemmNTPacked) {
  if (const char* reason = SkipReason()) GTEST_SKIP() << reason;
  Rng rng(75);
  for (size_t m : kRows) {
    for (size_t n : kCols) {
      for (size_t k : kDepths) {
        auto a = RandomBuffer(m * k, rng);
        auto b = RandomBuffer(n * k, rng);
        const auto seed = RandomBuffer(m * n, rng);
        const PackedNT packed = PackNT(b.data(), n, k, k);
        auto [avx2, scalar] = OnBothSets([&] {
          std::vector<float> c(m * n, -1.0f);
          GemmNTPacked(m, a.data(), k, packed, c.data(), n);
          std::vector<float> acc = seed;
          GemmNTPackedAccum(m, a.data(), k, packed, acc.data(), n);
          c.insert(c.end(), acc.begin(), acc.end());
          return c;
        });
        const std::string shape = "m=" + std::to_string(m) +
                                  " n=" + std::to_string(n) +
                                  " k=" + std::to_string(k);
        ExpectSameBits(avx2, scalar, shape.c_str());
      }
    }
  }
}

/// Random pre-activations plus every special value, at a length that leaves
/// a scalar tail on the AVX2 set.
std::vector<float> ActivationInputs() {
  Rng rng(73);
  std::vector<float> v = RandomBuffer(1838, rng, 4.0);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (float x : {nan, -nan, inf, -inf, 0.0f, -0.0f, 88.0f, -88.0f,
                  -87.3365478515625f, 100.0f, -100.0f, 1e-40f, -1e-40f}) {
    v.push_back(x);
  }
  return v;
}

TEST(SimdParityTest, ElementwiseActivations) {
  if (const char* reason = SkipReason()) GTEST_SKIP() << reason;
  const std::vector<float> x = ActivationInputs();
  Rng rng(74);
  const std::vector<float> o = RandomBuffer(x.size(), rng);
  auto [avx2, scalar] = OnBothSets([&] {
    std::vector<float> out;
    std::vector<float> v = x;
    SigmoidInplace(v.data(), v.size());
    out.insert(out.end(), v.begin(), v.end());
    v = x;
    TanhInplace(v.data(), v.size());
    out.insert(out.end(), v.begin(), v.end());
    std::vector<float> h(x.size());
    MulTanhInto(o.data(), x.data(), h.data(), x.size());
    out.insert(out.end(), h.begin(), h.end());
    v = x;
    ExpShiftedInplace(v.data(), v.size(), 1.25f);
    out.insert(out.end(), v.begin(), v.end());
    return out;
  });
  ExpectSameBits(avx2, scalar, "sigmoid|tanh|multanh|exp");
}

TEST(SimdParityTest, SumExpShifted) {
  if (const char* reason = SkipReason()) GTEST_SKIP() << reason;
  const std::vector<float> x = ActivationInputs();
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                   size_t{17}, size_t{1828}, x.size()}) {
    auto [avx2, scalar] = OnBothSets([&] {
      return SumExpShifted(x.data(), n, 2.5f);
    });
    EXPECT_EQ(std::bit_cast<uint64_t>(avx2), std::bit_cast<uint64_t>(scalar))
        << "n=" << n << ": " << avx2 << " vs " << scalar;
  }
}

TEST(SimdParityTest, AddBiasMax) {
  if (const char* reason = SkipReason()) GTEST_SKIP() << reason;
  const std::vector<float> x = ActivationInputs();
  Rng rng(76);
  const std::vector<float> bias = RandomBuffer(x.size(), rng);
  // Signed zeros only, with a -0 bias: the max is a tied zero whose sign
  // depends on the order the lanes meet it.
  std::vector<float> zeros(19, 0.0f);
  for (size_t j = 0; j < zeros.size(); j += 3) zeros[j] = -0.0f;
  const std::vector<float> minus_zero(zeros.size(), -0.0f);
  auto check = [](const std::vector<float>& v, const std::vector<float>& b,
                  size_t n, const std::string& what) {
    auto [avx2, scalar] = OnBothSets([&] {
      std::vector<float> out(v.begin(), v.begin() + n);
      out.push_back(AddBiasMax(out.data(), b.data(), n));
      return out;
    });
    ExpectSameBits(avx2, scalar, what.c_str());
  };
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                   size_t{17}, size_t{1828}, x.size()}) {
    check(x, bias, n, "n=" + std::to_string(n));
  }
  check(zeros, minus_zero, zeros.size(), "signed zeros");
}

}  // namespace
}  // namespace ncl::nn
