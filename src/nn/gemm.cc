// Blocked GEMM kernels (see gemm.h for the scheme).
//
// Bit-stability contract: every NT-family C element is produced by one
// ordered dot — the same 8-way split reduction for every tile position and
// tail — so results do not depend on how the caller tiles or batches rows.
// The NN/TN kernels keep the sequential-in-k per-element order of the naive
// loops they replace. Keep those properties when touching this file; the
// batched-vs-single determinism tests in tests/nn/gemm_test.cc and
// tests/comaid/batch_inference_test.cc pin them.
//
// The NT band/tile loops and the packed panel loops are each written once
// over a kernel set: ScalarKernels for the baseline target, and on x86-64
// Avx2Kernels, 8-wide intrinsics under [[gnu::target("avx2")]] with a
// separate multiply and add (no FMA). Both reduce every element in the same
// order, so they give the same bits and simd.h can pick either at run time
// (tests/nn/simd_parity_test.cc). The
// AVX2 entries inline the whole driver, call no SSE-encoded code, and return
// through _mm256_zeroupper(): GCC does not reliably emit vzeroupper for
// target("avx2") code, and a dirty upper YMM state slows the SSE-encoded
// code that runs next.

#include "nn/gemm.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "nn/simd.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ncl::nn {

namespace {

/// The scalar tail sum of a[k] * b[k] over [k, n), added to `total`. Each
/// kernel set compiles it into one out-of-line AddTail that its Dot and Tile
/// both call: inlined into each, the native build (-march=native
/// -ffast-math) compiled the loops differently, and GemmNT rows stopped
/// matching DotCanonical bit for bit. The AVX2 set needs its own
/// VEX-encoded copy: calling SSE-encoded code with dirty upper YMM state
/// costs a state transition per call, and the tape's outer-product
/// gradients (k = 1, all tail) made training ~18x slower that way.
inline float TailSum(float total, const float* a, const float* b, size_t k,
                     size_t n) {
  for (; k < n; ++k) total += a[k] * b[k];
  return total;
}

/// Baseline kernels. Lane l of the 8-way split sums elements k ≡ l (mod 8);
/// the autovectoriser turns this into the two-XMM shape of the AVX2 loop.
struct ScalarKernels {
  [[gnu::noinline]] static float AddTail(float total, const float* a,
                                         const float* b, size_t k, size_t n) {
    return TailSum(total, a, b, k, n);
  }

  static float Dot(const float* a, const float* b, size_t n) {
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
    // Avx2Kernels::ReduceAdd8's tree.
    const float total =
        ((acc0 + acc4) + (acc2 + acc6)) + ((acc1 + acc5) + (acc3 + acc7));
    return k < n ? AddTail(total, a, b, k, n) : total;
  }

  template <int MR>
  static void Tile(size_t kdim, const float* const arows[MR],
                   const float* const brows[4], float out[MR][4]) {
    for (int i = 0; i < MR; ++i) {
      for (int j = 0; j < 4; ++j) out[i][j] = Dot(arows[i], brows[j], kdim);
    }
  }

  /// One A row against one PackNT panel: column j of the panel reduces in
  /// Dot's order, with lane l's partial sums in acc[l][j]. The 8 columns
  /// run innermost, which the autovectoriser turns into two XMM operations;
  /// a column-outer loop (Dot per column over the panel) ran 1.8-2.3x
  /// slower on the decoder's logits shapes.
  /// Writes (or adds, under Accum) the first `cols` columns to c.
  template <bool Accum>
  static void PanelRow(const float* a, const float* panel, size_t kdim,
                       float* c, size_t cols) {
    float acc[8][8] = {};
    size_t k = 0;
    for (; k + 8 <= kdim; k += 8) {
      for (size_t l = 0; l < 8; ++l) {
        const float s = a[k + l];
        const float* w = panel + (k + l) * 8;
        for (size_t j = 0; j < 8; ++j) acc[l][j] += s * w[j];
      }
    }
    float total[8];
    for (size_t j = 0; j < 8; ++j) {
      total[j] = ((acc[0][j] + acc[4][j]) + (acc[2][j] + acc[6][j])) +
                 ((acc[1][j] + acc[5][j]) + (acc[3][j] + acc[7][j]));
    }
    for (; k < kdim; ++k) {
      const float s = a[k];
      const float* w = panel + k * 8;
      for (size_t j = 0; j < 8; ++j) total[j] += s * w[j];
    }
    for (size_t j = 0; j < cols; ++j) c[j] = Accum ? c[j] + total[j] : total[j];
  }
};

#if defined(__x86_64__)

struct Avx2Kernels {
  [[gnu::target("avx2"), gnu::noinline]] static float AddTail(
      float total, const float* a, const float* b, size_t k, size_t n) {
    return TailSum(total, a, b, k, n);
  }

  /// Fixed-order horizontal sum of one 8-lane accumulator.
  [[gnu::target("avx2")]] static float ReduceAdd8(__m256 v) {
    __m128 lo = _mm256_castps256_ps128(v);
    __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 sum4 = _mm_add_ps(lo, hi);                       // lanes l + l+4
    __m128 shuf = _mm_movehl_ps(sum4, sum4);                // lanes 2,3
    __m128 sum2 = _mm_add_ps(sum4, shuf);                   // (0+4)+(2+6), ...
    __m128 sum1 = _mm_add_ss(sum2, _mm_shuffle_ps(sum2, sum2, 0x1));
    return _mm_cvtss_f32(sum1);
  }

  [[gnu::target("avx2")]] static float Dot(const float* a, const float* b,
                                           size_t n) {
    __m256 acc = _mm256_setzero_ps();
    size_t k = 0;
    for (; k + 8 <= n; k += 8) {
      acc = _mm256_add_ps(
          acc, _mm256_mul_ps(_mm256_loadu_ps(a + k), _mm256_loadu_ps(b + k)));
    }
    const float total = ReduceAdd8(acc);
    return k < n ? AddTail(total, a, b, k, n) : total;
  }

  /// MR x 4 register tile (MR in 1..4): MR*4 vector accumulators walk the
  /// full reduction dimension once; A and B rows are each loaded once per
  /// 8-wide step and reused from registers. MR < 4 serves the m-remainder
  /// rows — in the batched ED scorer the active row count shrinks as short
  /// candidates finish, so partial tiles are the steady state. Every
  /// element still reduces in Dot's order, whatever MR it lands in.
  template <int MR>
  [[gnu::target("avx2")]] static void Tile(size_t kdim,
                                           const float* const arows[MR],
                                           const float* const brows[4],
                                           float out[MR][4]) {
    __m256 acc[MR][4];
    for (int i = 0; i < MR; ++i) {
      for (int j = 0; j < 4; ++j) acc[i][j] = _mm256_setzero_ps();
    }
    size_t k = 0;
    for (; k + 8 <= kdim; k += 8) {
      const __m256 vb0 = _mm256_loadu_ps(brows[0] + k);
      const __m256 vb1 = _mm256_loadu_ps(brows[1] + k);
      const __m256 vb2 = _mm256_loadu_ps(brows[2] + k);
      const __m256 vb3 = _mm256_loadu_ps(brows[3] + k);
      for (int i = 0; i < MR; ++i) {
        const __m256 va = _mm256_loadu_ps(arows[i] + k);
        acc[i][0] = _mm256_add_ps(acc[i][0], _mm256_mul_ps(va, vb0));
        acc[i][1] = _mm256_add_ps(acc[i][1], _mm256_mul_ps(va, vb1));
        acc[i][2] = _mm256_add_ps(acc[i][2], _mm256_mul_ps(va, vb2));
        acc[i][3] = _mm256_add_ps(acc[i][3], _mm256_mul_ps(va, vb3));
      }
    }
    // Fold every accumulator before any tail call, so none is live across
    // one.
    for (int i = 0; i < MR; ++i) {
      for (int j = 0; j < 4; ++j) out[i][j] = ReduceAdd8(acc[i][j]);
    }
    if (k == kdim) return;
    for (int i = 0; i < MR; ++i) {
      for (int j = 0; j < 4; ++j) {
        out[i][j] = AddTail(out[i][j], arows[i], brows[j], k, kdim);
      }
    }
  }

  /// a[k] times the panel's k-th 8 values.
  [[gnu::target("avx2")]] static __m256 PanelTerm(const float* a,
                                                  const float* panel,
                                                  size_t k) {
    return _mm256_mul_ps(_mm256_broadcast_ss(a + k),
                         _mm256_loadu_ps(panel + k * 8));
  }

  /// ScalarKernels::PanelRow with one vector accumulator per lane, each
  /// holding the panel's 8 columns: a broadcast of a[k] times the panel's
  /// k-th 8 values, added separately. The tree is 7 vertical adds, so no
  /// column is folded horizontally. Named accumulators, not an array: GCC
  /// 12 at -O2 keeps an array of __m256 on the stack and reloads and
  /// stores it around every add.
  template <bool Accum>
  [[gnu::target("avx2")]] static void PanelRow(const float* a,
                                               const float* panel,
                                               size_t kdim, float* c,
                                               size_t cols) {
    __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
    __m256 acc4 = _mm256_setzero_ps(), acc5 = _mm256_setzero_ps();
    __m256 acc6 = _mm256_setzero_ps(), acc7 = _mm256_setzero_ps();
    size_t k = 0;
    for (; k + 8 <= kdim; k += 8) {
      acc0 = _mm256_add_ps(acc0, PanelTerm(a, panel, k));
      acc1 = _mm256_add_ps(acc1, PanelTerm(a, panel, k + 1));
      acc2 = _mm256_add_ps(acc2, PanelTerm(a, panel, k + 2));
      acc3 = _mm256_add_ps(acc3, PanelTerm(a, panel, k + 3));
      acc4 = _mm256_add_ps(acc4, PanelTerm(a, panel, k + 4));
      acc5 = _mm256_add_ps(acc5, PanelTerm(a, panel, k + 5));
      acc6 = _mm256_add_ps(acc6, PanelTerm(a, panel, k + 6));
      acc7 = _mm256_add_ps(acc7, PanelTerm(a, panel, k + 7));
    }
    // ReduceAdd8's tree, one column per vector lane.
    __m256 total = _mm256_add_ps(
        _mm256_add_ps(_mm256_add_ps(acc0, acc4), _mm256_add_ps(acc2, acc6)),
        _mm256_add_ps(_mm256_add_ps(acc1, acc5), _mm256_add_ps(acc3, acc7)));
    for (; k < kdim; ++k) total = _mm256_add_ps(total, PanelTerm(a, panel, k));
    if (cols == 8) {
      if constexpr (Accum) total = _mm256_add_ps(_mm256_loadu_ps(c), total);
      _mm256_storeu_ps(c, total);
      return;
    }
    float out[8];
    _mm256_storeu_ps(out, total);
    for (size_t j = 0; j < cols; ++j) c[j] = Accum ? c[j] + out[j] : out[j];
  }
};

#endif  // __x86_64__

/// One MR-row band of the NT product: MR x 4 register tiles across n,
/// Kernels::Dot for the column tail. `Accum` selects = vs +=.
template <bool Accum, int MR, class Kernels>
void GemmNTBand(size_t n, size_t k, const float* const arows[MR],
                const float* b, size_t ldb, float* c, size_t ldc) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const float* brows[4] = {b + (j + 0) * ldb, b + (j + 1) * ldb,
                             b + (j + 2) * ldb, b + (j + 3) * ldb};
    float tile[MR][4];
    Kernels::template Tile<MR>(k, arows, brows, tile);
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
      float value = Kernels::Dot(arows[ti], b_row, k);
      float& slot = c[ti * ldc + j];
      slot = Accum ? slot + value : value;
    }
  }
}

/// Shared NT driver: full 4-row bands, then one 1-3 row band for the m
/// remainder so partial batches keep the register-tile B reuse.
template <bool Accum, class Kernels>
void GemmNTImpl(size_t m, size_t n, size_t k, const float* a, size_t lda,
                const float* b, size_t ldb, float* c, size_t ldc) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* arows[4] = {a + (i + 0) * lda, a + (i + 1) * lda,
                             a + (i + 2) * lda, a + (i + 3) * lda};
    GemmNTBand<Accum, 4, Kernels>(n, k, arows, b, ldb, c + i * ldc, ldc);
  }
  const size_t mr = m - i;
  if (mr == 0) return;
  const float* arows[3] = {a + i * lda,
                           a + (i + (mr > 1 ? 1 : 0)) * lda,
                           a + (i + (mr > 2 ? 2 : 0)) * lda};
  c += i * ldc;
  switch (mr) {
    case 1: GemmNTBand<Accum, 1, Kernels>(n, k, arows, b, ldb, c, ldc); break;
    case 2: GemmNTBand<Accum, 2, Kernels>(n, k, arows, b, ldb, c, ldc); break;
    default: GemmNTBand<Accum, 3, Kernels>(n, k, arows, b, ldb, c, ldc); break;
  }
}

/// The packed product over a kernel set: panels outside, rows inside, so
/// each panel stays in L1 while every row reads it.
template <bool Accum, class Kernels>
void GemmNTPackedImpl(size_t m, const float* a, size_t lda, const PackedNT& b,
                      float* c, size_t ldc) {
  for (size_t j = 0; j < b.n; j += 8) {
    const float* panel = b.panel(j / 8);
    const size_t cols = std::min<size_t>(8, b.n - j);
    for (size_t i = 0; i < m; ++i) {
      Kernels::template PanelRow<Accum>(a + i * lda, panel, b.k,
                                        c + i * ldc + j, cols);
    }
  }
}

#if defined(__x86_64__)

// AVX2 entries: flatten inlines the whole driver and its kernels, so they
// compile for AVX2 as one function.
template <bool Accum>
[[gnu::target("avx2"), gnu::flatten]] void GemmNTAvx2(
    size_t m, size_t n, size_t k, const float* a, size_t lda, const float* b,
    size_t ldb, float* c, size_t ldc) {
  GemmNTImpl<Accum, Avx2Kernels>(m, n, k, a, lda, b, ldb, c, ldc);
  _mm256_zeroupper();
}

template <bool Accum>
[[gnu::target("avx2"), gnu::flatten]] void GemmNTPackedAvx2(
    size_t m, const float* a, size_t lda, const PackedNT& b, float* c,
    size_t ldc) {
  GemmNTPackedImpl<Accum, Avx2Kernels>(m, a, lda, b, c, ldc);
  _mm256_zeroupper();
}

[[gnu::target("avx2"), gnu::flatten]] float DotAvx2(const float* a,
                                                    const float* b, size_t n) {
  const float total = Avx2Kernels::Dot(a, b, n);
  _mm256_zeroupper();
  return total;
}

#endif  // __x86_64__

template <bool Accum>
void GemmNTDispatch(size_t m, size_t n, size_t k, const float* a, size_t lda,
                    const float* b, size_t ldb, float* c, size_t ldc) {
#if defined(__x86_64__)
  if (internal::UseAvx2Kernels()) {
    GemmNTAvx2<Accum>(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
#endif
  GemmNTImpl<Accum, ScalarKernels>(m, n, k, a, lda, b, ldb, c, ldc);
}

template <bool Accum>
void GemmNTPackedDispatch(size_t m, const float* a, size_t lda,
                          const PackedNT& b, float* c, size_t ldc) {
#if defined(__FMA__)
  // PackNT kept B row-major: run the register tile (see gemm.h).
  GemmNTDispatch<Accum>(m, b.n, b.k, a, lda, b.rows, b.ldb, c, ldc);
#else
#if defined(__x86_64__)
  if (internal::UseAvx2Kernels()) {
    GemmNTPackedAvx2<Accum>(m, a, lda, b, c, ldc);
    return;
  }
#endif
  GemmNTPackedImpl<Accum, ScalarKernels>(m, a, lda, b, c, ldc);
#endif
}

}  // namespace

float DotCanonical(const float* a, const float* b, size_t n) {
#if defined(__x86_64__)
  if (internal::UseAvx2Kernels()) return DotAvx2(a, b, n);
#endif
  return ScalarKernels::Dot(a, b, n);
}

void GemmNT(size_t m, size_t n, size_t k, const float* a, size_t lda,
            const float* b, size_t ldb, float* c, size_t ldc) {
  GemmNTDispatch<false>(m, n, k, a, lda, b, ldb, c, ldc);
}

void GemmNTAccum(size_t m, size_t n, size_t k, const float* a, size_t lda,
                 const float* b, size_t ldb, float* c, size_t ldc) {
  GemmNTDispatch<true>(m, n, k, a, lda, b, ldb, c, ldc);
}

PackedNT PackNT(const float* b, size_t n, size_t k, size_t ldb) {
  PackedNT packed;
  packed.n = n;
  packed.k = k;
#if defined(__FMA__)
  packed.rows = b;
  packed.ldb = ldb;
#else
  // 7 spare floats let the panels start on a 32-byte boundary.
  packed.storage.assign((n + 7) / 8 * 8 * k + 7, 0.0f);
  const auto address = reinterpret_cast<uintptr_t>(packed.storage.data());
  packed.offset = (32 - address % 32) % 32 / sizeof(float);
  for (size_t j = 0; j < n; ++j) {
    float* column = packed.storage.data() + packed.offset + j / 8 * 8 * k +
                    j % 8;
    const float* row = b + j * ldb;
    for (size_t kk = 0; kk < k; ++kk) column[kk * 8] = row[kk];
  }
#endif
  return packed;
}

void GemmNTPacked(size_t m, const float* a, size_t lda, const PackedNT& b,
                  float* c, size_t ldc) {
  GemmNTPackedDispatch<false>(m, a, lda, b, c, ldc);
}

void GemmNTPackedAccum(size_t m, const float* a, size_t lda, const PackedNT& b,
                       float* c, size_t ldc) {
  GemmNTPackedDispatch<true>(m, a, lda, b, c, ldc);
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
