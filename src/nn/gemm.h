// Blocked GEMM kernels for the inference and training hot paths.
//
// Three row-major product flavours, named BLAS-style by whether each operand
// is used as-is (N) or transposed (T):
//
//   GemmNN:  C(m,n)  = A(m,k) * B(k,n)          — tape forward products
//   GemmNT:  C(m,n)  = A(m,k) * B(n,k)^T        — the batched-ED workhorse:
//            both operands walk the reduction dimension contiguously, so one
//            call replaces n independent mat-vecs (logits = S~ * W_s^T)
//   GemmTN:  C(m,n)  = A(k,m)^T * B(k,n)        — backward-pass gradients
//
// Layout/blocking scheme (documented in DESIGN.md "Batched scoring & GEMM
// blocking"):
//   * GemmNT tiles C into 4x4 register blocks; each block walks the full
//     reduction dimension once with 8-wide SIMD (AVX2 intrinsics when the
//     host has AVX2, AVX-512 hosts included, an 8-accumulator scalar
//     pattern the autovectoriser turns into the same shape otherwise;
//     simd.h picks one at run time). Every C element is a complete dot
//     product with a fixed reduction order, the same on every kernel set —
//     the value of C(i,j) is
//     independent of the tile it lands in and of the host, so batched
//     scoring is bit-stable under any lane count or tiling (pinned by
//     tests).
//   * GemmNN broadcasts A elements against contiguous B rows with a 4-row
//     register tile; the per-element reduction stays sequential in k, i.e.
//     bit-identical to the naive i-k-j loop it replaces.
//   * GemmTN packs 4-column panels of A into a contiguous buffer (the
//     strided column walk is what makes the naive version slow), then runs
//     the NT kernel against them.
//   * GemmNTPacked is the NT product against a fixed weight that PackNT laid
//     out once as B^T in panels of 8 columns, or of 16 when the AVX-512 set
//     runs. It vectorises across output columns instead of across k: lane l
//     of DotCanonical's 8-way split is one vector accumulator of 8 (or 16)
//     columns, so the fixed tree becomes 7 vertical adds and no output is
//     folded horizontally. Panels run in the outer loop and rows in the
//     inner one, so a panel stays in L1 while every row reads it and the
//     weight streams once per call. Each element keeps DotCanonical's order
//     and bits. Every kernel set reads either width (the AVX2 and scalar
//     sets read a 16-column panel as two 8-column halves), since a test can
//     cap the set after a model was warmed. In a build that fuses
//     multiply-adds (__FMA__, the native preset) PackNT keeps B's row-major
//     pointer instead and the packed entries run GemmNT's tile: there FMA
//     and 32 vector registers make the tile load-efficient, while a panel
//     needs two loads per FMA.
//
// All kernels take leading dimensions, so callers can run them over a
// prefix of rows — that is how the batched ED scorer masks ragged candidate
// lengths: lanes are sorted by target length and the active batch shrinks
// to a row prefix as short lanes finish.
//
// Accumulate variants (C += ...) add each fully-reduced dot product to the
// existing C element, matching Matrix::MatVecAccumInto semantics.

#pragma once

#include <cstddef>
#include <vector>

namespace ncl::nn {

/// Canonical dot product of two contiguous float spans: 8-way split
/// accumulation over the reduction dimension with a fixed reduction tree,
/// scalar tail appended sequentially. Every NT-family C element (and so
/// every Matrix::MatVecInto row) equals it bit for bit.
float DotCanonical(const float* a, const float* b, size_t n);

/// C(m,n) = A(m,k) * B(k,n); row-major, leading dimensions lda/ldb/ldc.
void GemmNN(size_t m, size_t n, size_t k, const float* a, size_t lda,
            const float* b, size_t ldb, float* c, size_t ldc);

/// C(m,n) = A(m,k) * B(n,k)^T.
void GemmNT(size_t m, size_t n, size_t k, const float* a, size_t lda,
            const float* b, size_t ldb, float* c, size_t ldc);

/// C(m,n) += A(m,k) * B(n,k)^T.
void GemmNTAccum(size_t m, size_t n, size_t k, const float* a, size_t lda,
                 const float* b, size_t ldb, float* c, size_t ldc);

/// C(m,n) = A(k,m)^T * B(k,n).
void GemmTN(size_t m, size_t n, size_t k, const float* a, size_t lda,
            const float* b, size_t ldb, float* c, size_t ldc);

/// \brief An n x k weight B laid out for GemmNTPacked.
///
/// Panel p holds, for each kk in [0, k), the `width` values
/// B[width*p .. width*p + width-1][kk], zero-padded past n. The width is 16
/// when PackNT ran under the AVX-512 set and 8 otherwise. In a build that
/// fuses multiply-adds it holds B's row-major pointer and leading dimension
/// instead, and B must outlive it. A default-constructed one is empty
/// (n = k = 0).
struct PackedNT {
  size_t n = 0;
  size_t k = 0;
  /// Columns per panel: 8 or 16.
  size_t width = 8;
  /// The panels, starting at storage.data() + offset (aligned to 4 * width
  /// bytes when packed; a copy keeps its values but not necessarily the
  /// alignment).
  std::vector<float> storage;
  size_t offset = 0;
  /// B and its leading dimension, in a build that fuses multiply-adds.
  const float* rows = nullptr;
  size_t ldb = 0;

  const float* panel(size_t p) const {
    return storage.data() + offset + p * width * k;
  }
};

/// Pack the n x k row-major weight `b` (leading dimension ldb).
PackedNT PackNT(const float* b, size_t n, size_t k, size_t ldb);

/// C(m,n) = A(m,k) * B(n,k)^T with B packed by PackNT; every element equals
/// GemmNT's (and so DotCanonical's) bit for bit.
void GemmNTPacked(size_t m, const float* a, size_t lda, const PackedNT& b,
                  float* c, size_t ldc);

/// C(m,n) += A(m,k) * B(n,k)^T with B packed by PackNT; equals GemmNTAccum.
void GemmNTPackedAccum(size_t m, const float* a, size_t lda, const PackedNT& b,
                       float* c, size_t ldc);

}  // namespace ncl::nn
