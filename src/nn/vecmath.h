// Vectorised element-wise activations and softmax reductions for the
// inference hot paths.
//
// The decode loop's non-GEMM cost is almost entirely transcendental:
// sigmoid/tanh over every LSTM gate element and exp over every vocabulary
// logit. All of them evaluate a degree-6 polynomial expf (Cephes
// coefficients, ~2 ulp): 16-wide AVX-512 or 8-wide AVX2 when the host has
// it, one element at a time otherwise (simd.h picks the set once at
// start-up). All three sets run the same operations in the same order — a separate multiply and add, never a
// fused one — so every function here gives the same bits on every host
// (the native preset, which lets the compiler fuse, is the one exception),
// and is position-independent: f(v[j]) does not depend on where j falls
// relative to the vector width. That property is what keeps the batched ED
// scorer bit-identical under any tiling — tiles of different lane counts
// call these helpers over differently shaped buffers (lanes x d), and
// identical inputs must produce identical outputs regardless of offset.
//
// Special values follow the vector instructions on every set. exp clamps
// its argument to [-87.34, 88] with min/max semantics that send NaN to the
// upper clamp, so exp(NaN) = exp(+inf) ~ 1.65e38; hence sigmoid(NaN) ~ 6e-39.
// tanh ORs the input's sign bit into (1 - q) / (1 + q) instead of calling
// copysign, so tanh(+-NaN) = -1 and tanh(+-inf) = +-1. None of these is a
// NaN: a NaN weight must be stopped where it is loaded (ParameterStore::Load
// rejects one).
//
// The tape (training) path keeps its own std::exp activations: these
// helpers are value-only and have no gradient story.

#pragma once

#include <cstddef>

namespace ncl::nn {

/// v[j] = 1 / (1 + exp(-v[j])).
void SigmoidInplace(float* v, size_t n);

/// v[j] = tanh(v[j]).
void TanhInplace(float* v, size_t n);

/// h[j] = o[j] * tanh(c[j]). `h` may alias `o` or `c`.
void MulTanhInto(const float* o, const float* c, float* h, size_t n);

/// v[j] = exp(v[j] - shift) (softmax numerator pass).
void ExpShiftedInplace(float* v, size_t n, float shift);

/// v[j] += bias[j] for every j, then return the largest v[j] (-inf when
/// n = 0): a logits row's bias add and softmax shift in one pass. NaN
/// entries are skipped, as std::max(max, v[j]) skips them. Lane l of an
/// 8-way split takes the max of the whole chunks' elements j ≡ l (mod 8),
/// in order, the lanes combine in DotCanonical's tree, and the tail follows
/// in order, on every kernel set (AVX-512 adds the bias 16 wide but takes
/// the maxima 8 wide). The max of non-NaN floats is the same in any order
/// except for the sign of a tied zero.
float AddBiasMax(float* v, const float* bias, size_t n);

/// Sum of exp(v[j] - shift) (softmax denominator), accumulated in double —
/// the cross-entropy loop's precision. Each whole 8-element chunk is folded
/// in a fixed tree before widening and added in order, and the tail is added
/// one element at a time, on every kernel set.
double SumExpShifted(const float* v, size_t n, float shift);

}  // namespace ncl::nn
