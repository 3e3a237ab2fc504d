// Vectorised activations (see vecmath.h for the parity contract).
//
// Three kernel sets, one numerics. The Cephes exp and the tanh and sigmoid
// built on it are written once, in vecmath_activations.inc, over a small ops
// struct per set: ScalarOps (one float), and on x86-64 avx2_set::Ops
// (__m256) and avx512_set::Ops (__m512), each with a separate multiply and
// add, never a fused one; the file is compiled once per set, in that set's
// target region. Every copy evaluates the same clamp, the same two-part ln2
// reduction, the same polynomial and the same 2^n exponent splice, so an
// element's bits never depend on which set computed it or where it fell.
// When simd.h picks a vector set its loops cover every whole 8-element
// chunk (the AVX-512 set runs its 16-wide blocks, then at most one 8-wide
// chunk), and the scalar copy covers the rest: every element on a host
// without AVX2, the tail on one with it. SumExpShifted and AddBiasMax keep
// the 8-chunk order on every set (see each). tests/nn/simd_parity_test.cc
// compares the sets bit for bit; the batched-vs-single tests in
// tests/comaid/batch_inference_test.cc break if they drift apart.

#include "nn/vecmath.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "nn/simd.h"

#if defined(__x86_64__)
// GCC 12's AVX-512 headers build some intrinsics on _mm512_undefined_*,
// which -Wmaybe-uninitialized then reports inside them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
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

/// The element-wise functions of vecmath.h.
enum class Map { kSigmoid, kTanh, kMulTanh, kExpShifted };

/// One float at a time, with the vector instructions' semantics.
struct ScalarOps {
  using V = float;
  static constexpr size_t kWidth = 1;
  static V Set1(float x) { return x; }
  static V Load(const float* p) { return *p; }
  static void Store(float* p, V x) { *p = x; }
  static V Add(V a, V b) { return a + b; }
  static V Sub(V a, V b) { return a - b; }
  static V Mul(V a, V b) { return a * b; }
  static V Div(V a, V b) { return a / b; }
  // _mm256_min_ps/_mm256_max_ps return their second operand when either is
  // NaN, so a NaN clamps to the bound; std::min/std::max would keep the NaN.
  static V Min(V x, V bound) { return x < bound ? x : bound; }
  static V Max(V x, V bound) { return x > bound ? x : bound; }
  // rint rounds to nearest even in the default rounding mode, which nothing
  // here changes, as _mm256_round_ps(_MM_FROUND_TO_NEAREST_INT) does. It
  // compiles inline, and unlike (v + 1.5*2^23) - 1.5*2^23 it survives
  // -ffast-math, which folds that back to v.
  static V Round(V x) { return std::rint(x); }
  /// 2^n for an integral n in [-126, 127], spliced into the exponent bits.
  static V Pow2(V n) {
    return std::bit_cast<float>((static_cast<int32_t>(n) + 127) << 23);
  }
  static V Abs(V x) {
    return std::bit_cast<float>(std::bit_cast<uint32_t>(x) & ~kSignBit);
  }
  /// The sign bit of `from` OR-ed into x.
  static V OrSign(V x, V from) {
    return std::bit_cast<float>(std::bit_cast<uint32_t>(x) |
                                (std::bit_cast<uint32_t>(from) & kSignBit));
  }
};

// Each kernel set compiles vecmath_activations.inc (the Cephes exp, tanh and
// sigmoid, and the span loop) over its own ops struct, inside a
// `#pragma GCC target` region for its instruction set. Every function that
// takes or returns a vector is then compiled for that set, so calls between
// them keep one ABI even where nothing is inlined (a -O0 build); a template
// without a target of its own would pass a vector one way and its target
// callee would read it another.
namespace scalar_set {
using Ops = ScalarOps;
#include "nn/vecmath_activations.inc"
}  // namespace scalar_set

/// std::max(m, x), which is _mm256_max_ps(x, m) lane for lane: m unless x
/// is larger, so a NaN x is skipped.
inline float MaxScalar(float m, float x) { return x > m ? x : m; }

/// AddBiasMax's lane maxima combined in DotCanonical's tree.
inline float MaxTree(const float m[8]) {
  return MaxScalar(MaxScalar(MaxScalar(m[0], m[4]), MaxScalar(m[2], m[6])),
                   MaxScalar(MaxScalar(m[1], m[5]), MaxScalar(m[3], m[7])));
}

#if defined(__x86_64__)

// Vector entries. Each covers v[0, whole), whole a multiple of 8; flatten
// inlines the set's functions into it, and it returns through
// _mm256_zeroupper() (see gemm.cc).

#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2_set {

struct Ops {
  using V = __m256;
  static constexpr size_t kWidth = 8;
  static V Set1(float x) { return _mm256_set1_ps(x); }
  static V Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, V x) { _mm256_storeu_ps(p, x); }
  static V Add(V a, V b) { return _mm256_add_ps(a, b); }
  static V Sub(V a, V b) { return _mm256_sub_ps(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V Div(V a, V b) { return _mm256_div_ps(a, b); }
  static V Min(V x, V bound) { return _mm256_min_ps(x, bound); }
  static V Max(V x, V bound) { return _mm256_max_ps(x, bound); }
  static V Round(V x) {
    return _mm256_round_ps(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static V Pow2(V n) {
    const __m256i e = _mm256_add_epi32(_mm256_cvtps_epi32(n),
                                       _mm256_set1_epi32(127));
    return _mm256_castsi256_ps(_mm256_slli_epi32(e, 23));
  }
  static V Abs(V x) { return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), x); }
  static V OrSign(V x, V from) {
    return _mm256_or_ps(x, _mm256_and_ps(from, _mm256_set1_ps(-0.0f)));
  }
};

#include "nn/vecmath_activations.inc"

template <Map F>
[[gnu::flatten]] void MapEntry(const float* x, const float* y, float shift,
                               float* out, size_t whole) {
  MapSpan<F>(x, y, shift, out, 0, whole);
  _mm256_zeroupper();
}

/// ReduceAdd8's tree (gemm.cc): ((e0+e4)+(e2+e6))+((e1+e5)+(e3+e7)).
inline float Fold8(__m256 e) {
  __m128 lo = _mm256_castps256_ps128(e);
  __m128 hi = _mm256_extractf128_ps(e, 1);
  __m128 sum4 = _mm_add_ps(lo, hi);
  __m128 shuf = _mm_movehl_ps(sum4, sum4);
  __m128 sum2 = _mm_add_ps(sum4, shuf);
  __m128 sum1 = _mm_add_ss(sum2, _mm_shuffle_ps(sum2, sum2, 0x1));
  return _mm_cvtss_f32(sum1);
}

/// The softmax denominator's 8-chunks in [j, whole), each folded in
/// Fold8's tree and widened into `total`.
inline double SumExp8(const float* v, size_t j, size_t whole, float shift,
                      double total) {
  const __m256 s = _mm256_set1_ps(shift);
  for (; j < whole; j += 8) {
    total += static_cast<double>(
        Fold8(Exp(_mm256_sub_ps(_mm256_loadu_ps(v + j), s))));
  }
  return total;
}

[[gnu::flatten]] double SumExpShiftedEntry(const float* v, size_t whole,
                                           float shift) {
  const double total = SumExp8(v, 0, whole, shift, 0.0);
  _mm256_zeroupper();
  return total;
}

/// AddBiasMax's 8-chunks in [j, whole): lane l of m takes the max of the
/// chunks' elements ≡ l (mod 8), in order.
inline __m256 AddBiasMax8(float* v, const float* bias, size_t j, size_t whole,
                          __m256 m) {
  for (; j < whole; j += 8) {
    const __m256 x =
        _mm256_add_ps(_mm256_loadu_ps(v + j), _mm256_loadu_ps(bias + j));
    _mm256_storeu_ps(v + j, x);
    m = _mm256_max_ps(x, m);
  }
  return m;
}

/// AddBiasMax's whole chunks: stores the 8 lane maxima to `lanes`.
[[gnu::flatten]] void AddBiasMaxEntry(float* v, const float* bias,
                                      size_t whole, float lanes[8]) {
  const __m256 m =
      AddBiasMax8(v, bias, 0, whole,
                  _mm256_set1_ps(-std::numeric_limits<float>::infinity()));
  _mm256_storeu_ps(lanes, m);
  _mm256_zeroupper();
}

}  // namespace avx2_set
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")
namespace avx512_set {

struct Ops {
  using V = __m512;
  static constexpr size_t kWidth = 16;
  static V Set1(float x) { return _mm512_set1_ps(x); }
  static V Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, V x) { _mm512_storeu_ps(p, x); }
  static V Add(V a, V b) { return _mm512_add_ps(a, b); }
  static V Sub(V a, V b) { return _mm512_sub_ps(a, b); }
  static V Mul(V a, V b) { return _mm512_mul_ps(a, b); }
  static V Div(V a, V b) { return _mm512_div_ps(a, b); }
  static V Min(V x, V bound) { return _mm512_min_ps(x, bound); }
  static V Max(V x, V bound) { return _mm512_max_ps(x, bound); }
  static V Round(V x) {
    return _mm512_roundscale_ps(x, _MM_FROUND_TO_NEAREST_INT |
                                       _MM_FROUND_NO_EXC);
  }
  static V Pow2(V n) {
    const __m512i e = _mm512_add_epi32(_mm512_cvtps_epi32(n),
                                       _mm512_set1_epi32(127));
    return _mm512_castsi512_ps(_mm512_slli_epi32(e, 23));
  }
  // AVX-512F has no float and/or (that is AVX-512DQ): use the integer ones.
  static V Abs(V x) {
    return _mm512_castsi512_ps(_mm512_and_epi32(
        _mm512_castps_si512(x), _mm512_set1_epi32(0x7fffffff)));
  }
  static V OrSign(V x, V from) {
    const __m512i sign =
        _mm512_and_epi32(_mm512_castps_si512(from),
                         _mm512_set1_epi32(static_cast<int>(kSignBit)));
    return _mm512_castsi512_ps(_mm512_or_epi32(_mm512_castps_si512(x), sign));
  }
};

#include "nn/vecmath_activations.inc"

/// 16-wide blocks, then at most one 8-wide chunk: the same bits as
/// avx2_set's entry, since the functions are position-independent.
template <Map F>
[[gnu::flatten]] void MapEntry(const float* x, const float* y, float shift,
                               float* out, size_t whole) {
  const size_t j = MapSpan<F>(x, y, shift, out, 0, whole);
  avx2_set::MapSpan<F>(x, y, shift, out, j, whole);
  _mm256_zeroupper();
}

/// Fold8's tree on each 8-element half of e with in-lane shuffles: lane 0
/// ends up holding the low half's sum and lane 8 the high half's.
inline __m512 Fold8Halves(__m512 e) {
  // Lanes l and l + 4 of each half: swap the 128-bit blocks within a half.
  const __m512 sum4 =
      _mm512_add_ps(e, _mm512_shuffle_f32x4(e, e, _MM_SHUFFLE(2, 3, 0, 1)));
  const __m512 sum2 =
      _mm512_add_ps(sum4, _mm512_permute_ps(sum4, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm512_add_ps(sum2, _mm512_permute_ps(sum2, _MM_SHUFFLE(2, 3, 0, 1)));
}

/// The two 8-chunk sums of one Fold8Halves result added to `total`, low
/// chunk first.
inline double AddHalves(double total, __m512 folded) {
  total += static_cast<double>(_mm512_cvtss_f32(folded));
  return total + static_cast<double>(
                     _mm_cvtss_f32(_mm512_extractf32x4_ps(folded, 2)));
}

/// Two 16-wide vectors per step, then one, then a leftover 8-chunk on the
/// AVX2 fold: every 8-chunk is folded alone and added in order, as on the
/// other sets.
[[gnu::flatten]] double SumExpShiftedEntry(const float* v, size_t whole,
                                           float shift) {
  const __m512 s = _mm512_set1_ps(shift);
  double total = 0.0;
  size_t j = 0;
  for (; j + 32 <= whole; j += 32) {
    const __m512 f0 = Fold8Halves(Exp(_mm512_sub_ps(_mm512_loadu_ps(v + j), s)));
    const __m512 f1 =
        Fold8Halves(Exp(_mm512_sub_ps(_mm512_loadu_ps(v + j + 16), s)));
    total = AddHalves(AddHalves(total, f0), f1);
  }
  if (j + 16 <= whole) {
    total = AddHalves(
        total, Fold8Halves(Exp(_mm512_sub_ps(_mm512_loadu_ps(v + j), s))));
    j += 16;
  }
  total = avx2_set::SumExp8(v, j, whole, shift, total);
  _mm256_zeroupper();
  return total;
}

/// The bias added 16 wide; each 16-block's low then high 8 elements meet the
/// lane maxima in two ordered 8-wide max ops, so every lane sees its
/// elements in the AVX2 set's order (a tied zero's sign depends on it).
[[gnu::flatten]] void AddBiasMaxEntry(float* v, const float* bias,
                                      size_t whole, float lanes[8]) {
  __m256 m = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  size_t j = 0;
  for (; j + 16 <= whole; j += 16) {
    const __m512 x =
        _mm512_add_ps(_mm512_loadu_ps(v + j), _mm512_loadu_ps(bias + j));
    _mm512_storeu_ps(v + j, x);
    m = _mm256_max_ps(_mm512_castps512_ps256(x), m);
    m = _mm256_max_ps(
        _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(x), 1)), m);
  }
  m = avx2_set::AddBiasMax8(v, bias, j, whole, m);
  _mm256_storeu_ps(lanes, m);
  _mm256_zeroupper();
}

}  // namespace avx512_set
#pragma GCC pop_options

/// The elements the vector loops of `set` cover: every whole 8-element
/// chunk for a vector set, none for the scalar one.
inline size_t VectorSpan(KernelSet set, size_t n) {
  return set == KernelSet::kScalar ? 0 : n - n % 8;
}

#endif  // __x86_64__

/// One element-wise function over [0, n) on the chosen set.
template <Map F>
void MapAll(const float* x, const float* y, float shift, float* out,
            size_t n) {
  size_t j = 0;
#if defined(__x86_64__)
  const KernelSet set = internal::Active();
  j = VectorSpan(set, n);
  if (j > 0) {
    if (set == KernelSet::kAvx512) {
      avx512_set::MapEntry<F>(x, y, shift, out, j);
    } else {
      avx2_set::MapEntry<F>(x, y, shift, out, j);
    }
  }
#endif
  scalar_set::MapSpan<F>(x, y, shift, out, j, n);
}

}  // namespace

void SigmoidInplace(float* v, size_t n) {
  MapAll<Map::kSigmoid>(v, nullptr, 0.0f, v, n);
}

void TanhInplace(float* v, size_t n) {
  MapAll<Map::kTanh>(v, nullptr, 0.0f, v, n);
}

void MulTanhInto(const float* o, const float* c, float* h, size_t n) {
  MapAll<Map::kMulTanh>(o, c, 0.0f, h, n);
}

void ExpShiftedInplace(float* v, size_t n, float shift) {
  MapAll<Map::kExpShifted>(v, nullptr, shift, v, n);
}

float AddBiasMax(float* v, const float* bias, size_t n) {
  float lanes[8];
  std::fill(lanes, lanes + 8, -std::numeric_limits<float>::infinity());
  size_t j = 0;
#if defined(__x86_64__)
  const KernelSet set = internal::Active();
  j = VectorSpan(set, n);
  if (j > 0) {
    if (set == KernelSet::kAvx512) {
      avx512_set::AddBiasMaxEntry(v, bias, j, lanes);
    } else {
      avx2_set::AddBiasMaxEntry(v, bias, j, lanes);
    }
  }
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
  const KernelSet set = internal::Active();
  j = VectorSpan(set, n);
  if (j > 0) {
    total = set == KernelSet::kAvx512
                ? avx512_set::SumExpShiftedEntry(v, j, shift)
                : avx2_set::SumExpShiftedEntry(v, j, shift);
  }
#endif
  // The scalar set folds each whole chunk in the vector sets' tree before
  // widening, so the sum does not depend on which set ran.
  for (; j + 8 <= n; j += 8) {
    float e[8];
    for (size_t l = 0; l < 8; ++l) e[l] = scalar_set::Exp(v[j + l] - shift);
    total += static_cast<double>(((e[0] + e[4]) + (e[2] + e[6])) +
                                 ((e[1] + e[5]) + (e[3] + e[7])));
  }
  for (; j < n; ++j) {
    total += static_cast<double>(scalar_set::Exp(v[j] - shift));
  }
  return total;
}

}  // namespace ncl::nn
