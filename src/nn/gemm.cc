// Blocked GEMM kernels (see gemm.h for the scheme).
//
// Bit-stability contract: every NT-family C element is produced by
// DotOrdered — the same 8-way split reduction for every tile position and
// tail — so results do not depend on how the caller tiles or batches rows.
// The NN/TN kernels keep the sequential-in-k per-element order of the naive
// loops they replace. Keep those properties when touching this file; the
// batched-vs-single determinism tests in tests/nn/gemm_test.cc and
// tests/comaid/batch_inference_test.cc pin them.

#include "nn/gemm.h"

#include <vector>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define NCL_GEMM_AVX2 1
#endif

namespace ncl::nn {

namespace {

#if NCL_GEMM_AVX2

/// Fixed-order horizontal sum of one 8-lane accumulator. Every NT kernel
/// reduces through this helper so per-element results are identical across
/// tile shapes.
inline float ReduceAdd8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum4 = _mm_add_ps(lo, hi);                       // lanes l + l+4
  __m128 shuf = _mm_movehl_ps(sum4, sum4);                // lanes 2,3
  __m128 sum2 = _mm_add_ps(sum4, shuf);                   // (0+4)+(2+6), ...
  __m128 sum1 = _mm_add_ss(sum2, _mm_shuffle_ps(sum2, sum2, 0x1));
  return _mm_cvtss_f32(sum1);
}

/// Adds the scalar tail sum of a[k] * b[k] over [k, n) to `total`. Both
/// kernels below call this one out-of-line copy: inlined into each, the
/// native build (-march=native -ffast-math) compiled the two loops
/// differently, and GemmNT rows stopped matching DotCanonical bit for bit.
[[gnu::noinline]] float AddTail(float total, const float* a, const float* b,
                                size_t k, size_t n) {
  for (; k < n; ++k) total += a[k] * b[k];
  return total;
}

inline float DotOrdered(const float* a, const float* b, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + k), _mm256_loadu_ps(b + k), acc);
  }
  return AddTail(ReduceAdd8(acc), a, b, k, n);
}

/// MR x 4 register tile of the NT kernel (MR in 1..4): MR*4 vector
/// accumulators walk the full reduction dimension once; A and B rows are
/// each loaded once per 8-wide step and reused from registers. MR < 4
/// serves the m-remainder rows — in the batched ED scorer the active row
/// count shrinks as short candidates finish, so partial tiles are the
/// steady state, not a corner case. Every element still reduces in the
/// DotOrdered order, whatever MR it lands in.
template <int MR>
inline void NTKernelMx4(size_t kdim, const float* const arows[MR],
                        const float* b0, const float* b1, const float* b2,
                        const float* b3, float out[MR][4]) {
  __m256 acc[MR][4];
  for (int i = 0; i < MR; ++i) {
    for (int j = 0; j < 4; ++j) acc[i][j] = _mm256_setzero_ps();
  }
  size_t k = 0;
  for (; k + 8 <= kdim; k += 8) {
    const __m256 vb0 = _mm256_loadu_ps(b0 + k);
    const __m256 vb1 = _mm256_loadu_ps(b1 + k);
    const __m256 vb2 = _mm256_loadu_ps(b2 + k);
    const __m256 vb3 = _mm256_loadu_ps(b3 + k);
    for (int i = 0; i < MR; ++i) {
      const __m256 va = _mm256_loadu_ps(arows[i] + k);
      acc[i][0] = _mm256_fmadd_ps(va, vb0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(va, vb1, acc[i][1]);
      acc[i][2] = _mm256_fmadd_ps(va, vb2, acc[i][2]);
      acc[i][3] = _mm256_fmadd_ps(va, vb3, acc[i][3]);
    }
  }
  const float* brows[4] = {b0, b1, b2, b3};
  for (int i = 0; i < MR; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[i][j] = AddTail(ReduceAdd8(acc[i][j]), arows[i], brows[j], k, kdim);
    }
  }
}

#else  // scalar fallback

/// 8-accumulator split dot: lane l sums elements k ≡ l (mod 8). The
/// autovectoriser turns this into the same two-XMM / one-YMM shape the
/// intrinsic path uses explicitly.
inline float DotOrdered(const float* a, const float* b, size_t n) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  float acc4 = 0.0f, acc5 = 0.0f, acc6 = 0.0f, acc7 = 0.0f;
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    acc0 += a[k] * b[k];
    acc1 += a[k + 1] * b[k + 1];
    acc2 += a[k + 2] * b[k + 2];
    acc3 += a[k + 3] * b[k + 3];
    acc4 += a[k + 4] * b[k + 4];
    acc5 += a[k + 5] * b[k + 5];
    acc6 += a[k + 6] * b[k + 6];
    acc7 += a[k + 7] * b[k + 7];
  }
  float total = ((acc0 + acc4) + (acc2 + acc6)) + ((acc1 + acc5) + (acc3 + acc7));
  for (; k < n; ++k) total += a[k] * b[k];
  return total;
}

template <int MR>
inline void NTKernelMx4(size_t kdim, const float* const arows[MR],
                        const float* b0, const float* b1, const float* b2,
                        const float* b3, float out[MR][4]) {
  const float* brows[4] = {b0, b1, b2, b3};
  for (int i = 0; i < MR; ++i) {
    for (int j = 0; j < 4; ++j) out[i][j] = DotOrdered(arows[i], brows[j], kdim);
  }
}

#endif  // NCL_GEMM_AVX2

/// One MR-row band of the NT product: MR x 4 register tiles across n,
/// generic DotOrdered for the column tail. `Accum` selects = vs +=.
template <bool Accum, int MR>
void GemmNTBand(size_t n, size_t k, const float* const arows[MR],
                const float* b, size_t ldb, float* c, size_t ldc) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    float tile[MR][4];
    NTKernelMx4<MR>(k, arows, b + (j + 0) * ldb, b + (j + 1) * ldb,
                    b + (j + 2) * ldb, b + (j + 3) * ldb, tile);
    for (int ti = 0; ti < MR; ++ti) {
      float* c_row = c + ti * ldc + j;
      for (int tj = 0; tj < 4; ++tj) {
        if constexpr (Accum) {
          c_row[tj] += tile[ti][tj];
        } else {
          c_row[tj] = tile[ti][tj];
        }
      }
    }
  }
  for (; j < n; ++j) {
    const float* b_row = b + j * ldb;
    for (int ti = 0; ti < MR; ++ti) {
      float value = DotOrdered(arows[ti], b_row, k);
      float& slot = c[ti * ldc + j];
      slot = Accum ? slot + value : value;
    }
  }
}

/// Shared NT driver: full 4-row bands, then one 1-3 row band for the m
/// remainder so partial batches keep the register-tile B reuse. `Accum`
/// selects = vs +=.
template <bool Accum>
void GemmNTImpl(size_t m, size_t n, size_t k, const float* a, size_t lda,
                const float* b, size_t ldb, float* c, size_t ldc) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* arows[4] = {a + (i + 0) * lda, a + (i + 1) * lda,
                             a + (i + 2) * lda, a + (i + 3) * lda};
    GemmNTBand<Accum, 4>(n, k, arows, b, ldb, c + i * ldc, ldc);
  }
  const size_t mr = m - i;
  if (mr == 0) return;
  const float* arows[3] = {a + i * lda,
                           a + (i + (mr > 1 ? 1 : 0)) * lda,
                           a + (i + (mr > 2 ? 2 : 0)) * lda};
  switch (mr) {
    case 1: GemmNTBand<Accum, 1>(n, k, arows, b, ldb, c + i * ldc, ldc); break;
    case 2: GemmNTBand<Accum, 2>(n, k, arows, b, ldb, c + i * ldc, ldc); break;
    default: GemmNTBand<Accum, 3>(n, k, arows, b, ldb, c + i * ldc, ldc); break;
  }
}

}  // namespace

float DotCanonical(const float* a, const float* b, size_t n) {
  return DotOrdered(a, b, n);
}

void GemmNT(size_t m, size_t n, size_t k, const float* a, size_t lda,
            const float* b, size_t ldb, float* c, size_t ldc) {
  GemmNTImpl<false>(m, n, k, a, lda, b, ldb, c, ldc);
}

void GemmNTAccum(size_t m, size_t n, size_t k, const float* a, size_t lda,
                 const float* b, size_t ldb, float* c, size_t ldc) {
  GemmNTImpl<true>(m, n, k, a, lda, b, ldb, c, ldc);
}

void GemmNN(size_t m, size_t n, size_t k, const float* a, size_t lda,
            const float* b, size_t ldb, float* c, size_t ldc) {
  // Broadcast-style kernel: C rows accumulate contiguous B rows scaled by
  // one A element at a time, so the per-element reduction is sequential in
  // k (bit-identical to the naive i-k-j triple loop). A 4-row register tile
  // reuses each loaded B row across four C rows.
  for (size_t i = 0; i < m; ++i) {
    float* c_row = c + i * ldc;
    for (size_t j = 0; j < n; ++j) c_row[j] = 0.0f;
  }
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + (i + 0) * lda;
    const float* a1 = a + (i + 1) * lda;
    const float* a2 = a + (i + 2) * lda;
    const float* a3 = a + (i + 3) * lda;
    float* c0 = c + (i + 0) * ldc;
    float* c1 = c + (i + 1) * ldc;
    float* c2 = c + (i + 2) * ldc;
    float* c3 = c + (i + 3) * ldc;
    for (size_t kk = 0; kk < k; ++kk) {
      const float* b_row = b + kk * ldb;
      const float s0 = a0[kk], s1 = a1[kk], s2 = a2[kk], s3 = a3[kk];
      for (size_t j = 0; j < n; ++j) {
        const float bv = b_row[j];
        c0[j] += s0 * bv;
        c1[j] += s1 * bv;
        c2[j] += s2 * bv;
        c3[j] += s3 * bv;
      }
    }
  }
  for (; i < m; ++i) {
    const float* a_row = a + i * lda;
    float* c_row = c + i * ldc;
    for (size_t kk = 0; kk < k; ++kk) {
      const float s = a_row[kk];
      const float* b_row = b + kk * ldb;
      for (size_t j = 0; j < n; ++j) c_row[j] += s * b_row[j];
    }
  }
}

void GemmTN(size_t m, size_t n, size_t k, const float* a, size_t lda,
            const float* b, size_t ldb, float* c, size_t ldc) {
  // A is walked column-wise (stride lda) — the access pattern that makes
  // the naive version cache-hostile. Pack 4-column panels of A into a
  // contiguous buffer once, then run the broadcast kernel over the packed
  // rows. The per-element reduction stays sequential in k.
  std::vector<float> packed(4 * k);
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    for (size_t kk = 0; kk < k; ++kk) {
      const float* a_row = a + kk * lda + i;
      packed[0 * k + kk] = a_row[0];
      packed[1 * k + kk] = a_row[1];
      packed[2 * k + kk] = a_row[2];
      packed[3 * k + kk] = a_row[3];
    }
    float* c0 = c + (i + 0) * ldc;
    float* c1 = c + (i + 1) * ldc;
    float* c2 = c + (i + 2) * ldc;
    float* c3 = c + (i + 3) * ldc;
    for (size_t j = 0; j < n; ++j) {
      c0[j] = 0.0f;
      c1[j] = 0.0f;
      c2[j] = 0.0f;
      c3[j] = 0.0f;
    }
    for (size_t kk = 0; kk < k; ++kk) {
      const float* b_row = b + kk * ldb;
      const float s0 = packed[0 * k + kk];
      const float s1 = packed[1 * k + kk];
      const float s2 = packed[2 * k + kk];
      const float s3 = packed[3 * k + kk];
      for (size_t j = 0; j < n; ++j) {
        const float bv = b_row[j];
        c0[j] += s0 * bv;
        c1[j] += s1 * bv;
        c2[j] += s2 * bv;
        c3[j] += s3 * bv;
      }
    }
  }
  for (; i < m; ++i) {
    float* c_row = c + i * ldc;
    for (size_t j = 0; j < n; ++j) c_row[j] = 0.0f;
    for (size_t kk = 0; kk < k; ++kk) {
      const float s = a[kk * lda + i];
      const float* b_row = b + kk * ldb;
      for (size_t j = 0; j < n; ++j) c_row[j] += s * b_row[j];
    }
  }
}

}  // namespace ncl::nn
