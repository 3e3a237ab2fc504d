// GEMM kernel tests: parity against a naive triple loop over awkward
// (odd/prime/tiny) shapes so every register-tile tail path is exercised,
// degenerate/empty shapes, the accumulate variant, leading-dimension
// (row-prefix) operation, and the determinism contract the batched scorer
// relies on: GemmNT row values are bit-identical to DotCanonical whatever
// the matrix shape, so results do not depend on how work is tiled. The
// packed panel product must give GemmNT's bits on every shape.

#include "nn/gemm.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/random.h"

namespace ncl::nn {
namespace {

std::vector<float> RandomBuffer(size_t n, Rng& rng) {
  std::vector<float> buf(n);
  for (float& v : buf) v = static_cast<float>(rng.Normal(0.0, 1.0));
  return buf;
}

void NaiveNN(size_t m, size_t n, size_t k, const float* a, const float* b,
             float* c) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) c[i * n + j] = 0.0f;
    for (size_t p = 0; p < k; ++p) {
      const float s = a[i * k + p];
      for (size_t j = 0; j < n; ++j) c[i * n + j] += s * b[p * n + j];
    }
  }
}

void NaiveNT(size_t m, size_t n, size_t k, const float* a, const float* b,
             float* c) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[j * k + p];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

void NaiveTN(size_t m, size_t n, size_t k, const float* a, const float* b,
             float* c) {
  // C (m x n) = A^T B with A stored k x m, B stored k x n.
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[p * m + i]) * b[p * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

/// Shapes chosen to hit every tail: below one tile, exactly one tile, tile
/// + remainder, primes that divide nothing.
const size_t kDims[] = {1, 2, 3, 5, 7, 13, 17, 31, 64, 100, 129};

TEST(GemmTest, NNMatchesNaiveAcrossOddShapes) {
  Rng rng(42);
  for (size_t m : kDims) {
    for (size_t n : {1, 3, 17, 129}) {
      for (size_t k : {1, 5, 31, 64}) {
        auto a = RandomBuffer(m * k, rng);
        auto b = RandomBuffer(k * n, rng);
        std::vector<float> got(m * n, -1.0f), want(m * n);
        GemmNN(m, n, k, a.data(), k, b.data(), n, got.data(), n);
        NaiveNN(m, n, k, a.data(), b.data(), want.data());
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_NEAR(got[i], want[i], 1e-4 * (1.0 + std::abs(want[i])))
              << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
        }
      }
    }
  }
}

TEST(GemmTest, NTMatchesNaiveAcrossOddShapes) {
  Rng rng(43);
  for (size_t m : kDims) {
    for (size_t n : {1, 3, 17, 129}) {
      for (size_t k : {1, 5, 31, 64}) {
        auto a = RandomBuffer(m * k, rng);
        auto b = RandomBuffer(n * k, rng);
        std::vector<float> got(m * n, -1.0f), want(m * n);
        GemmNT(m, n, k, a.data(), k, b.data(), k, got.data(), n);
        NaiveNT(m, n, k, a.data(), b.data(), want.data());
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_NEAR(got[i], want[i], 1e-4 * (1.0 + std::abs(want[i])))
              << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
        }
      }
    }
  }
}

TEST(GemmTest, TNMatchesNaiveAcrossOddShapes) {
  Rng rng(44);
  for (size_t m : {1, 3, 17, 129}) {
    for (size_t n : {1, 5, 31}) {
      for (size_t k : kDims) {
        auto a = RandomBuffer(k * m, rng);
        auto b = RandomBuffer(k * n, rng);
        std::vector<float> got(m * n, -1.0f), want(m * n);
        GemmTN(m, n, k, a.data(), m, b.data(), n, got.data(), n);
        NaiveTN(m, n, k, a.data(), b.data(), want.data());
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_NEAR(got[i], want[i], 1e-4 * (1.0 + std::abs(want[i])))
              << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
        }
      }
    }
  }
}

TEST(GemmTest, NTAccumAddsOntoExistingC) {
  Rng rng(45);
  const size_t m = 7, n = 13, k = 31;
  auto a = RandomBuffer(m * k, rng);
  auto b = RandomBuffer(n * k, rng);
  auto base = RandomBuffer(m * n, rng);

  std::vector<float> got = base;
  GemmNTAccum(m, n, k, a.data(), k, b.data(), k, got.data(), n);

  std::vector<float> product(m * n);
  GemmNT(m, n, k, a.data(), k, b.data(), k, product.data(), n);
  for (size_t i = 0; i < got.size(); ++i) {
    // Accum must add exactly the overwrite-variant's product.
    ASSERT_EQ(got[i], base[i] + product[i]) << "i=" << i;
  }
}

TEST(GemmTest, EmptyShapesAreNoOps) {
  float a = 1.0f, b = 2.0f;
  float c = 42.0f;
  GemmNN(0, 1, 1, &a, 1, &b, 1, &c, 1);
  GemmNT(0, 1, 1, &a, 1, &b, 1, &c, 1);
  GemmTN(0, 1, 1, &a, 1, &b, 1, &c, 1);
  GemmNTAccum(0, 1, 1, &a, 1, &b, 1, &c, 1);
  EXPECT_EQ(c, 42.0f);  // m == 0: C untouched

  // k == 0: a dot over nothing writes zeros (NN/NT/TN) or adds nothing.
  GemmNN(1, 1, 0, &a, 0, &b, 1, &c, 1);
  EXPECT_EQ(c, 0.0f);
  c = 42.0f;
  GemmNT(1, 1, 0, &a, 0, &b, 0, &c, 1);
  EXPECT_EQ(c, 0.0f);
  c = 42.0f;
  GemmNTAccum(1, 1, 0, &a, 0, &b, 0, &c, 1);
  EXPECT_EQ(c, 42.0f);
}

TEST(GemmTest, LeadingDimensionsAddressSubmatrices) {
  // The batched scorer runs kernels over a row prefix of larger scratch
  // buffers: lda/ldb/ldc wider than the logical shape must address the
  // submatrix correctly and leave the padding untouched.
  Rng rng(46);
  const size_t m = 6, n = 5, k = 12;
  const size_t lda = k + 3, ldb = k + 2, ldc = n + 4;
  std::vector<float> a_pad(m * lda, 999.0f), b_pad(n * ldb, 999.0f);
  std::vector<float> a(m * k), b(n * k);
  for (size_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < k; ++p) {
      a[i * k + p] = static_cast<float>(rng.Normal(0.0, 1.0));
      a_pad[i * lda + p] = a[i * k + p];
    }
  }
  for (size_t j = 0; j < n; ++j) {
    for (size_t p = 0; p < k; ++p) {
      b[j * k + p] = static_cast<float>(rng.Normal(0.0, 1.0));
      b_pad[j * ldb + p] = b[j * k + p];
    }
  }

  std::vector<float> c_pad(m * ldc, -7.0f), tight(m * n);
  GemmNT(m, n, k, a_pad.data(), lda, b_pad.data(), ldb, c_pad.data(), ldc);
  GemmNT(m, n, k, a.data(), k, b.data(), k, tight.data(), n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < ldc; ++j) {
      if (j < n) {
        ASSERT_EQ(c_pad[i * ldc + j], tight[i * n + j]) << i << "," << j;
      } else {
        ASSERT_EQ(c_pad[i * ldc + j], -7.0f) << "padding clobbered at " << j;
      }
    }
  }
}

TEST(GemmTest, NTRowsAreBitIdenticalToDotCanonical) {
  // The determinism contract: every C[i][j] of GemmNT is DotCanonical of
  // the two rows, independent of m/n (tiling). This is what makes batched
  // scoring invariant to batch composition.
  Rng rng(47);
  for (size_t k : {1, 7, 31, 64, 129}) {
    const size_t m = 9, n = 6;
    auto a = RandomBuffer(m * k, rng);
    auto b = RandomBuffer(n * k, rng);
    std::vector<float> c(m * n);
    GemmNT(m, n, k, a.data(), k, b.data(), k, c.data(), n);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        ASSERT_EQ(c[i * n + j],
                  DotCanonical(a.data() + i * k, b.data() + j * k, k))
            << "k=" << k << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(GemmTest, NTInvariantToBatchRowCount) {
  // Scoring 1 row must give bit-identical values to scoring it inside a
  // 32-row batch — the lane-count invariance the ED batcher advertises.
  Rng rng(48);
  const size_t k = 50, n = 11, rows = 32;
  auto a = RandomBuffer(rows * k, rng);
  auto b = RandomBuffer(n * k, rng);
  std::vector<float> big(rows * n), one(n);
  GemmNT(rows, n, k, a.data(), k, b.data(), k, big.data(), n);
  for (size_t r = 0; r < rows; ++r) {
    GemmNT(1, n, k, a.data() + r * k, k, b.data(), k, one.data(), n);
    for (size_t j = 0; j < n; ++j) {
      ASSERT_EQ(big[r * n + j], one[j]) << "row " << r << " col " << j;
    }
  }
}

TEST(GemmTest, PackedMatchesGemmNT) {
  // GemmNTPacked(Accum) against GemmNT(Accum), element for element: m from
  // no row to past a 32-lane tile, n below, at and past one 8- and one
  // 16-column panel, k below, at and past one 8-wide step, with and without
  // a tail. Padded lda/ldb/ldc address submatrices, and C's padding must
  // stay untouched.
  Rng rng(49);
  for (size_t m : {0, 1, 2, 3, 4, 5, 20, 33}) {
    for (size_t n : {1, 7, 8, 9, 15, 16, 17, 31, 133}) {
      for (size_t k : {1, 7, 8, 9, 32, 37, 96}) {
        const size_t lda = k + 3, ldb = k + 2, ldc = n + 5;
        const auto a = RandomBuffer(m * lda, rng);
        const auto b = RandomBuffer(n * ldb, rng);
        const auto seed = RandomBuffer(m * ldc, rng);
        const PackedNT packed = PackNT(b.data(), n, k, ldb);
        if (packed.rows == nullptr) {
          // Panels (a build without FMA): B^T in panels of the recorded
          // width (16 on the AVX-512 set, else 8), zero past n.
          const size_t w = packed.width;
          ASSERT_TRUE(w == 8 || w == 16) << w;
          for (size_t j = 0; j < (n + w - 1) / w * w; ++j) {
            for (size_t kk = 0; kk < k; ++kk) {
              ASSERT_EQ(packed.panel(j / w)[kk * w + j % w],
                        j < n ? b[j * ldb + kk] : 0.0f)
                  << "n=" << n << " k=" << k << " column " << j << " kk=" << kk;
            }
          }
        }
        std::vector<float> want(m * ldc, -7.0f), got = want;
        GemmNT(m, n, k, a.data(), lda, b.data(), ldb, want.data(), ldc);
        GemmNTPacked(m, a.data(), lda, packed, got.data(), ldc);
        std::vector<float> want_acc = seed, got_acc = seed;
        GemmNTAccum(m, n, k, a.data(), lda, b.data(), ldb, want_acc.data(), ldc);
        GemmNTPackedAccum(m, a.data(), lda, packed, got_acc.data(), ldc);
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i], want[i])
              << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
          ASSERT_EQ(got_acc[i], want_acc[i])
              << "accum m=" << m << " n=" << n << " k=" << k << " i=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ncl::nn
