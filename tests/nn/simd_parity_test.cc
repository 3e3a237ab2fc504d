// Parity of the kernel sets (simd.h): every NT product (row-major and
// packed), dot, activation and reduction must give the same bits on the
// host's best set and with each lower set forced by a ScopedKernelCap. On an
// AVX-512 host that compares AVX-512 and AVX2 with scalar; on an AVX2 host,
// AVX2 with scalar. Shapes cover every tile and tail path: m and n below, at
// and past the 4-wide register tile and the 8- and 16-column panels, k below,
// at and past the 8-wide vector step, and spans that leave each of the
// 16-wide sets' remainders (15, 16, 17, 24, 29, and 1,828 to 1,836 around
// the perfbench vocabulary), with k = 96 the composite width at d = 32. Each
// case skips on a host without AVX2, where only the scalar set runs, and in
// a -ffast-math build (the native preset), where GCC contracts and
// reassociates each set differently; CI fails the tier-1 job on any skip
// here except Avx512SetRunsAndPacks16Wide's, which names a host without
// AVX-512.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
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

bool Avx2Runs() { return ActiveKernelSet() >= KernelSet::kAvx2; }

constexpr const char* kNoAvx2 = "host has no AVX2: only the scalar set runs";

/// Why the sets cannot be compared here, or null when they can.
const char* SkipReason() {
#if defined(__ASSOCIATIVE_MATH__)
  return "-ffast-math build: the sets' bits differ by design";
#else
  return Avx2Runs() ? nullptr : kNoAvx2;
#endif
}

std::vector<float> RandomBuffer(size_t n, Rng& rng, double stddev = 1.0) {
  std::vector<float> buf(n);
  for (float& v : buf) v = static_cast<float>(rng.Normal(0.0, stddev));
  return buf;
}

/// Runs `fn` on each set the host runs, best first (each lower one under a
/// cap); returns the sets and their results.
template <class Fn>
auto OnEachSet(Fn fn) {
  std::vector<std::pair<KernelSet, decltype(fn())>> runs;
  for (KernelSet set : RunnableKernelSets()) {
    ScopedKernelCap cap(set);
    runs.emplace_back(set, fn());
  }
  return runs;
}

template <class T>
uint64_t Bits(T x) {
  if constexpr (sizeof(T) == 4) {
    return std::bit_cast<uint32_t>(x);
  } else {
    return std::bit_cast<uint64_t>(x);
  }
}

/// Every lower set's values against the best set's, bit for bit.
template <class T>
void ExpectSameBits(
    const std::vector<std::pair<KernelSet, std::vector<T>>>& runs,
    const std::string& what) {
  const auto& [best_set, best] = runs.front();
  for (const auto& [set, values] : runs) {
    ASSERT_EQ(values.size(), best.size());
    for (size_t i = 0; i < best.size(); ++i) {
      ASSERT_EQ(Bits(values[i]), Bits(best[i]))
          << what << " i=" << i << ": " << KernelSetName(set) << " "
          << values[i] << " vs " << KernelSetName(best_set) << " " << best[i];
    }
  }
}

const size_t kRows[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 33};
const size_t kCols[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 1828};
const size_t kPanelCols[] = {1,  2,  3,  4,  5,    6,    7,    8,   9,
                             15, 16, 17, 24, 29, 1828, 1832, 1836};
const size_t kDepths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 96};
/// Spans for the reductions and activations: below, at and past one 8-chunk
/// and one 16-wide block, and around the perfbench vocabulary. After the
/// 16-wide blocks 29 and 1,836 leave an 8-chunk and a scalar tail, 1,832
/// only the 8-chunk, and 1,828 only a 4-element tail.
const size_t kSpans[] = {0,  1,  7,  8,  9,    15,   16,  17,
                         24, 29, 1828, 1832, 1836};

TEST(SimdParityTest, ScopedKernelCapLimitsAndRestores) {
  if (!Avx2Runs()) GTEST_SKIP() << kNoAvx2;
  const std::string best = SimdPathName();
  {
    ScopedKernelCap outer(KernelSet::kScalar);
    EXPECT_STREQ(SimdPathName(), "scalar");
    {
      // A nested cap never raises an outer one.
      ScopedKernelCap inner(KernelSet::kAvx2);
      EXPECT_STREQ(SimdPathName(), "scalar");
    }
    EXPECT_STREQ(SimdPathName(), "scalar");
  }
  EXPECT_EQ(SimdPathName(), best);
  {
    ScopedKernelCap avx2(KernelSet::kAvx2);
    EXPECT_STREQ(SimdPathName(), "avx2");
    EXPECT_EQ(RunnableKernelSets(),
              (std::vector<KernelSet>{KernelSet::kAvx2, KernelSet::kScalar}));
  }
  EXPECT_EQ(SimdPathName(), best);
}

TEST(SimdParityTest, Avx512SetRunsAndPacks16Wide) {
  // The skip CI reports as a notice: this host has no AVX-512F, so every
  // case here compared AVX2 with scalar only.
  if (ActiveKernelSet() != KernelSet::kAvx512) {
    GTEST_SKIP() << "host has no AVX-512F: the AVX-512 set was not compared";
  }
  EXPECT_STREQ(SimdPathName(), "avx512");
  const std::vector<float> b(5 * 3, 1.0f);
  const PackedNT packed = PackNT(b.data(), 5, 3, 3);
  // A build that fuses multiply-adds keeps B row-major instead (gemm.h).
  if (packed.rows != nullptr) return;
  EXPECT_EQ(packed.width, size_t{16});
  ScopedKernelCap avx2(KernelSet::kAvx2);
  EXPECT_EQ(PackNT(b.data(), 5, 3, 3).width, size_t{8});
}

TEST(SimdParityTest, DotCanonical) {
  if (const char* reason = SkipReason()) GTEST_SKIP() << reason;
  Rng rng(71);
  for (size_t k : kDepths) {
    for (int trial = 0; trial < 50; ++trial) {
      auto a = RandomBuffer(k, rng);
      auto b = RandomBuffer(k, rng);
      ExpectSameBits(OnEachSet([&] {
                       return std::vector<float>{
                           DotCanonical(a.data(), b.data(), k)};
                     }),
                     "k=" + std::to_string(k));
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
        const auto runs = OnEachSet([&] {
          std::vector<float> c(m * n, -1.0f);
          GemmNT(m, n, k, a.data(), k, b.data(), k, c.data(), n);
          std::vector<float> acc = seed;
          GemmNTAccum(m, n, k, a.data(), k, b.data(), k, acc.data(), n);
          c.insert(c.end(), acc.begin(), acc.end());
          return c;
        });
        ExpectSameBits(runs, "m=" + std::to_string(m) +
                                 " n=" + std::to_string(n) +
                                 " k=" + std::to_string(k));
      }
    }
  }
}

TEST(SimdParityTest, GemmNTPacked) {
  // B is packed under each set (16-column panels on an AVX-512 host's best
  // set, 8-column ones below it), and every set reads every packing, as it
  // must after a cap changes the set under a warmed model.
  if (const char* reason = SkipReason()) GTEST_SKIP() << reason;
  Rng rng(75);
  for (size_t m : kRows) {
    for (size_t n : kPanelCols) {
      for (size_t k : kDepths) {
        auto a = RandomBuffer(m * k, rng);
        auto b = RandomBuffer(n * k, rng);
        const auto seed = RandomBuffer(m * n, rng);
        const auto packings =
            OnEachSet([&] { return PackNT(b.data(), n, k, k); });
        const auto runs = OnEachSet([&] {
          std::vector<float> out;
          for (const auto& [packed_under, packed] : packings) {
            std::vector<float> c(m * n, -1.0f);
            GemmNTPacked(m, a.data(), k, packed, c.data(), n);
            std::vector<float> acc = seed;
            GemmNTPackedAccum(m, a.data(), k, packed, acc.data(), n);
            out.insert(out.end(), c.begin(), c.end());
            out.insert(out.end(), acc.begin(), acc.end());
          }
          return out;
        });
        const std::string shape = "m=" + std::to_string(m) +
                                  " n=" + std::to_string(n) +
                                  " k=" + std::to_string(k);
        ExpectSameBits(runs, shape);
        // Within the best set's run, every packing gives the same bits.
        const std::vector<float>& best = runs.front().second;
        const size_t per_packing = 2 * m * n;
        for (size_t p = 1; p < packings.size(); ++p) {
          for (size_t i = 0; i < per_packing; ++i) {
            ASSERT_EQ(Bits(best[p * per_packing + i]), Bits(best[i]))
                << shape << " packing " << p << " i=" << i;
          }
        }
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
  std::vector<size_t> spans(std::begin(kSpans), std::end(kSpans));
  spans.push_back(x.size());
  for (size_t n : spans) {
    const auto runs = OnEachSet([&] {
      std::vector<float> out;
      std::vector<float> v(x.begin(), x.begin() + n);
      SigmoidInplace(v.data(), n);
      out.insert(out.end(), v.begin(), v.end());
      v.assign(x.begin(), x.begin() + n);
      TanhInplace(v.data(), n);
      out.insert(out.end(), v.begin(), v.end());
      std::vector<float> h(n);
      MulTanhInto(o.data(), x.data(), h.data(), n);
      out.insert(out.end(), h.begin(), h.end());
      v.assign(x.begin(), x.begin() + n);
      ExpShiftedInplace(v.data(), n, 1.25f);
      out.insert(out.end(), v.begin(), v.end());
      return out;
    });
    ExpectSameBits(runs, "sigmoid|tanh|multanh|exp n=" + std::to_string(n));
  }
}

TEST(SimdParityTest, SumExpShifted) {
  if (const char* reason = SkipReason()) GTEST_SKIP() << reason;
  const std::vector<float> x = ActivationInputs();
  std::vector<size_t> spans(std::begin(kSpans), std::end(kSpans));
  spans.push_back(x.size());
  for (size_t n : spans) {
    ExpectSameBits(OnEachSet([&] {
                     return std::vector<double>{
                         SumExpShifted(x.data(), n, 2.5f)};
                   }),
                   "n=" + std::to_string(n));
  }
  // Chunk sums exp(37) (between 2^53 and 2^54, where a double's spacing is
  // 2), then ~0, then 1 and 2: in chunk order the total rounds T+1 to T and
  // ends at T+2, while adding the 2 before the 1 ends at T+4. So a set that
  // adds a 16-wide vector's two chunks out of order fails here.
  std::vector<float> order(32, -100.0f);
  order[0] = 37.0f;
  order[16] = order[24] = order[25] = 0.0f;
  ExpectSameBits(OnEachSet([&] {
                   return std::vector<double>{
                       SumExpShifted(order.data(), order.size(), 0.0f)};
                 }),
                 "chunk order");
}

TEST(SimdParityTest, AddBiasMax) {
  if (const char* reason = SkipReason()) GTEST_SKIP() << reason;
  const std::vector<float> x = ActivationInputs();
  Rng rng(76);
  const std::vector<float> bias = RandomBuffer(x.size(), rng);
  // Signed zeros only, with a -0 bias: the max is a tied zero whose sign
  // depends on the order the lanes meet it. 35 elements: two 16-wide
  // blocks and a tail on the AVX-512 set.
  std::vector<float> zeros(35, 0.0f);
  for (size_t j = 0; j < zeros.size(); j += 3) zeros[j] = -0.0f;
  const std::vector<float> minus_zero(zeros.size(), -0.0f);
  auto check = [](const std::vector<float>& v, const std::vector<float>& b,
                  size_t n, const std::string& what) {
    ExpectSameBits(OnEachSet([&] {
                     std::vector<float> out(v.begin(), v.begin() + n);
                     out.push_back(AddBiasMax(out.data(), b.data(), n));
                     return out;
                   }),
                   what);
  };
  for (size_t n : kSpans) check(x, bias, n, "n=" + std::to_string(n));
  check(x, bias, x.size(), "n=" + std::to_string(x.size()));
  for (size_t n : {size_t{19}, zeros.size()}) {
    check(zeros, minus_zero, n, "signed zeros n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace ncl::nn
