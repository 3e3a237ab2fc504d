// Vectorised activations (see vecmath.h for the parity contract).
//
// Two kernel sets, one numerics. On x86-64 the AVX2 loops (8-wide
// intrinsics under [[gnu::target("avx2")]], no FMA) cover every whole
// 8-element chunk when simd.h picks them, and the scalar mirrors cover the
// rest: every element on a host without AVX2, the tail on one with it. Exp8
// and ExpScalar evaluate the same clamp, the same two-part ln2 reduction,
// the same polynomial as a separate multiply and add, and the same 2^n
// exponent splice, so an element's bits never depend on which set computed
// it or where it fell. tests/nn/simd_parity_test.cc compares the two sets
// bit for bit; the batched-vs-single tests in
// tests/comaid/batch_inference_test.cc break if they drift apart.

#include "nn/vecmath.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "nn/simd.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ncl::nn {

namespace {

// Cephes expf constants: x = n*ln2 + r with |r| <= ln2/2, exp(r) by a
// degree-6 polynomial, exp(x) = 2^n * exp(r). The upper clamp must keep
// n <= 127 *after* the single-precision multiply by log2(e) — at the float
// overflow threshold (~88.72) the product rounds to exactly 127.5 and the
// round-to-even to 128 splices an infinite exponent. 88 gives n = 127 max
// with margin; the lost [88, 88.72) range only moves the saturation value
// from 2.4e38 to 1.7e38.
constexpr float kExpHi = 88.0f;
constexpr float kExpLo = -87.3365478515625f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpC0 = 1.9875691500e-4f;
constexpr float kExpC1 = 1.3981999507e-3f;
constexpr float kExpC2 = 8.3334519073e-3f;
constexpr float kExpC3 = 4.1665795894e-2f;
constexpr float kExpC4 = 1.6666665459e-1f;
constexpr float kExpC5 = 5.0000001201e-1f;
constexpr uint32_t kSignBit = 0x80000000u;

/// Scalar mirror of Exp8, one operation per vector instruction.
inline float ExpScalar(float x) {
  // _mm256_min_ps/_mm256_max_ps return their second operand when either is
  // NaN, so a NaN clamps to kExpHi; std::min/std::max would keep the NaN.
  x = x < kExpHi ? x : kExpHi;
  x = x > kExpLo ? x : kExpLo;
  // rint rounds to nearest even in the default rounding mode, which nothing
  // here changes, as _mm256_round_ps(_MM_FROUND_TO_NEAREST_INT) does. It
  // compiles inline, and unlike (v + 1.5*2^23) - 1.5*2^23 it survives
  // -ffast-math, which folds that back to v.
  const float n = std::rint(x * kLog2e);
  float r = x - n * kLn2Hi;
  r = r - n * kLn2Lo;
  float p = kExpC0;
  p = p * r + kExpC1;
  p = p * r + kExpC2;
  p = p * r + kExpC3;
  p = p * r + kExpC4;
  p = p * r + kExpC5;
  const float y = (p * (r * r) + r) + 1.0f;
  const int32_t e = (static_cast<int32_t>(n) + 127) << 23;
  return y * std::bit_cast<float>(e);
}

/// tanh(x) = sign(x) * (1 - q) / (1 + q) with q = exp(-2|x|) in [0, 1]:
/// the denominator stays in [1, 2], so there is no huge-operand division —
/// under -freciprocal-math a (e-1)/(e+1) formulation multiplies by a
/// subnormal reciprocal that flush-to-zero turns into 0. Saturates to
/// exactly +-1 once q underflows. The input's sign bit is OR-ed in, as
/// Tanh8 does; unlike copysign that keeps a negative quotient negative, so
/// a NaN input gives -1 on both paths.
inline float TanhScalar(float x) {
  const uint32_t bits = std::bit_cast<uint32_t>(x);
  const float ax = std::bit_cast<float>(bits & ~kSignBit);
  const float q = ExpScalar(0.0f - (ax + ax));
  const float t = (1.0f - q) / (1.0f + q);
  return std::bit_cast<float>(std::bit_cast<uint32_t>(t) | (bits & kSignBit));
}

inline float SigmoidScalar(float x) {
  return 1.0f / (1.0f + ExpScalar(0.0f - x));
}

/// std::max(m, x), which is _mm256_max_ps(x, m) lane for lane: m unless x
/// is larger, so a NaN x is skipped.
inline float MaxScalar(float m, float x) { return x > m ? x : m; }

/// AddBiasMax's lane maxima combined in DotCanonical's tree.
inline float MaxTree(const float m[8]) {
  return MaxScalar(MaxScalar(MaxScalar(m[0], m[4]), MaxScalar(m[2], m[6])),
                   MaxScalar(MaxScalar(m[1], m[5]), MaxScalar(m[3], m[7])));
}

#if defined(__x86_64__)

[[gnu::target("avx2")]] inline __m256 Exp8(__m256 x) {
  x = _mm256_min_ps(x, _mm256_set1_ps(kExpHi));
  x = _mm256_max_ps(x, _mm256_set1_ps(kExpLo));
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(kLog2e)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Lo)));
  __m256 p = _mm256_set1_ps(kExpC0);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC1));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC5));
  const __m256 r2 = _mm256_mul_ps(r, r);
  const __m256 y = _mm256_add_ps(
      _mm256_add_ps(_mm256_mul_ps(p, r2), r), _mm256_set1_ps(1.0f));
  __m256i e = _mm256_cvtps_epi32(n);
  e = _mm256_slli_epi32(_mm256_add_epi32(e, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(e));
}

[[gnu::target("avx2")]] inline __m256 Tanh8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 sign = _mm256_and_ps(x, sign_mask);
  const __m256 ax = _mm256_andnot_ps(sign_mask, x);
  const __m256 q = Exp8(_mm256_sub_ps(_mm256_setzero_ps(),
                                      _mm256_add_ps(ax, ax)));
  const __m256 t =
      _mm256_div_ps(_mm256_sub_ps(one, q), _mm256_add_ps(one, q));
  return _mm256_or_ps(t, sign);
}

[[gnu::target("avx2")]] inline __m256 Sigmoid8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = Exp8(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

// AVX2 entries. Each covers v[0, whole), whole a multiple of 8, and returns
// through _mm256_zeroupper() (see gemm.cc).

[[gnu::target("avx2")]] void SigmoidAvx2(float* v, size_t whole) {
  for (size_t j = 0; j < whole; j += 8) {
    _mm256_storeu_ps(v + j, Sigmoid8(_mm256_loadu_ps(v + j)));
  }
  _mm256_zeroupper();
}

[[gnu::target("avx2")]] void TanhAvx2(float* v, size_t whole) {
  for (size_t j = 0; j < whole; j += 8) {
    _mm256_storeu_ps(v + j, Tanh8(_mm256_loadu_ps(v + j)));
  }
  _mm256_zeroupper();
}

[[gnu::target("avx2")]] void MulTanhAvx2(const float* o, const float* c,
                                         float* h, size_t whole) {
  for (size_t j = 0; j < whole; j += 8) {
    _mm256_storeu_ps(h + j, _mm256_mul_ps(_mm256_loadu_ps(o + j),
                                          Tanh8(_mm256_loadu_ps(c + j))));
  }
  _mm256_zeroupper();
}

[[gnu::target("avx2")]] void ExpShiftedAvx2(float* v, size_t whole,
                                            float shift) {
  const __m256 s = _mm256_set1_ps(shift);
  for (size_t j = 0; j < whole; j += 8) {
    _mm256_storeu_ps(v + j, Exp8(_mm256_sub_ps(_mm256_loadu_ps(v + j), s)));
  }
  _mm256_zeroupper();
}

[[gnu::target("avx2")]] double SumExpShiftedAvx2(const float* v, size_t whole,
                                                 float shift) {
  const __m256 s = _mm256_set1_ps(shift);
  double total = 0.0;
  for (size_t j = 0; j < whole; j += 8) {
    const __m256 e = Exp8(_mm256_sub_ps(_mm256_loadu_ps(v + j), s));
    // Fixed-order horizontal fold of the chunk (gemm.cc's ReduceAdd8),
    // widened into the double accumulator.
    __m128 lo = _mm256_castps256_ps128(e);
    __m128 hi = _mm256_extractf128_ps(e, 1);
    __m128 sum4 = _mm_add_ps(lo, hi);
    __m128 shuf = _mm_movehl_ps(sum4, sum4);
    __m128 sum2 = _mm_add_ps(sum4, shuf);
    __m128 sum1 = _mm_add_ss(sum2, _mm_shuffle_ps(sum2, sum2, 0x1));
    total += static_cast<double>(_mm_cvtss_f32(sum1));
  }
  _mm256_zeroupper();
  return total;
}

/// AddBiasMax's whole chunks: stores the 8 lane maxima to `lanes`.
[[gnu::target("avx2")]] void AddBiasMaxAvx2(float* v, const float* bias,
                                            size_t whole, float lanes[8]) {
  __m256 m = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  for (size_t j = 0; j < whole; j += 8) {
    const __m256 x =
        _mm256_add_ps(_mm256_loadu_ps(v + j), _mm256_loadu_ps(bias + j));
    _mm256_storeu_ps(v + j, x);
    m = _mm256_max_ps(x, m);
  }
  _mm256_storeu_ps(lanes, m);
  _mm256_zeroupper();
}

/// The elements the AVX2 loops cover: every whole 8-element chunk when
/// simd.h picks them, none otherwise.
inline size_t Avx2Span(size_t n) {
  return internal::UseAvx2Kernels() ? n - n % 8 : 0;
}

#endif  // __x86_64__

}  // namespace

void SigmoidInplace(float* v, size_t n) {
  size_t j = 0;
#if defined(__x86_64__)
  j = Avx2Span(n);
  if (j > 0) SigmoidAvx2(v, j);
#endif
  for (; j < n; ++j) v[j] = SigmoidScalar(v[j]);
}

void TanhInplace(float* v, size_t n) {
  size_t j = 0;
#if defined(__x86_64__)
  j = Avx2Span(n);
  if (j > 0) TanhAvx2(v, j);
#endif
  for (; j < n; ++j) v[j] = TanhScalar(v[j]);
}

void MulTanhInto(const float* o, const float* c, float* h, size_t n) {
  size_t j = 0;
#if defined(__x86_64__)
  j = Avx2Span(n);
  if (j > 0) MulTanhAvx2(o, c, h, j);
#endif
  for (; j < n; ++j) h[j] = o[j] * TanhScalar(c[j]);
}

void ExpShiftedInplace(float* v, size_t n, float shift) {
  size_t j = 0;
#if defined(__x86_64__)
  j = Avx2Span(n);
  if (j > 0) ExpShiftedAvx2(v, j, shift);
#endif
  for (; j < n; ++j) v[j] = ExpScalar(v[j] - shift);
}

float AddBiasMax(float* v, const float* bias, size_t n) {
  float lanes[8];
  std::fill(lanes, lanes + 8, -std::numeric_limits<float>::infinity());
  size_t j = 0;
#if defined(__x86_64__)
  j = Avx2Span(n);
  if (j > 0) AddBiasMaxAvx2(v, bias, j, lanes);
#endif
  for (; j + 8 <= n; j += 8) {
    for (size_t l = 0; l < 8; ++l) {
      v[j + l] += bias[j + l];
      lanes[l] = MaxScalar(lanes[l], v[j + l]);
    }
  }
  float max = MaxTree(lanes);
  for (; j < n; ++j) {
    v[j] += bias[j];
    max = MaxScalar(max, v[j]);
  }
  return max;
}

double SumExpShifted(const float* v, size_t n, float shift) {
  double total = 0.0;
  size_t j = 0;
#if defined(__x86_64__)
  j = Avx2Span(n);
  if (j > 0) total = SumExpShiftedAvx2(v, j, shift);
#endif
  // The scalar set folds each whole chunk in the AVX2 loop's tree before
  // widening, so the sum does not depend on which set ran.
  for (; j + 8 <= n; j += 8) {
    float e[8];
    for (size_t l = 0; l < 8; ++l) e[l] = ExpScalar(v[j + l] - shift);
    total += static_cast<double>(((e[0] + e[4]) + (e[2] + e[6])) +
                                 ((e[1] + e[5]) + (e[3] + e[7])));
  }
  for (; j < n; ++j) total += static_cast<double>(ExpScalar(v[j] - shift));
  return total;
}

}  // namespace ncl::nn
