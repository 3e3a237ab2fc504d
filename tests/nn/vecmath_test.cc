// Tests for the vectorised activations: accuracy against the libm
// reference and position-independence — the property the batched scorer's
// bit-exactness rests on (vecmath.h). Both kernel sets evaluate the same
// Cephes polynomial, so the same bounds pin both: every test runs on the set
// the host chose and, on an AVX2 host, again with the scalar set forced.

#include "nn/vecmath.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "nn/simd.h"
#include "util/random.h"

namespace ncl::nn {
namespace {

/// Runs `body` on the kernel set this host chose and, on an AVX2 host,
/// again with the scalar set forced.
template <class Body>
void OnEachSet(Body body) {
  {
    SCOPED_TRACE(SimdPathName());
    body();
  }
  if (std::string_view(SimdPathName()) == "avx2") {
    ScopedScalarKernels scalar;
    SCOPED_TRACE("scalar (forced)");
    body();
  }
}

std::vector<float> TestValues() {
  // Dense around 0 (LSTM pre-activations live there), plus saturation and
  // clamp territory in both directions.
  std::vector<float> v;
  for (float x = -12.0f; x <= 12.0f; x += 0.037f) v.push_back(x);
  for (float x : {-100.0f, -88.0f, -30.0f, 0.0f, 1e-6f, -1e-6f, 30.0f, 88.0f})
    v.push_back(x);
  Rng rng(11);
  for (int i = 0; i < 500; ++i)
    v.push_back(static_cast<float>(rng.Normal(0.0, 3.0)));
  return v;
}

TEST(VecMathTest, SigmoidMatchesLibm) {
  OnEachSet([] {
    std::vector<float> v = TestValues();
    std::vector<float> expected;
    for (float x : v) expected.push_back(1.0f / (1.0f + std::exp(-x)));
    SigmoidInplace(v.data(), v.size());
    for (size_t i = 0; i < v.size(); ++i) {
      EXPECT_NEAR(v[i], expected[i], 2e-6f) << "x[" << i << "]";
    }
  });
}

TEST(VecMathTest, TanhMatchesLibmAndSaturates) {
  OnEachSet([] {
    std::vector<float> v = TestValues();
    std::vector<float> expected;
    for (float x : v) expected.push_back(std::tanh(x));
    std::vector<float> input = v;
    TanhInplace(v.data(), v.size());
    for (size_t i = 0; i < v.size(); ++i) {
      EXPECT_NEAR(v[i], expected[i], 2e-6f) << "x[" << i << "]";
      if (input[i] >= 12.0f) {
        EXPECT_EQ(v[i], 1.0f);
      }
      if (input[i] <= -12.0f) {
        EXPECT_EQ(v[i], -1.0f);
      }
    }
  });
}

TEST(VecMathTest, ExpShiftedMatchesLibm) {
  OnEachSet([] {
    std::vector<float> v = TestValues();
    const float shift = 2.0f;
    std::vector<float> expected;
    for (float x : v) expected.push_back(std::exp(x - shift));
    ExpShiftedInplace(v.data(), v.size(), shift);
    for (size_t i = 0; i < v.size(); ++i) {
      // Relative: exp spans many orders of magnitude.
      EXPECT_NEAR(v[i], expected[i], 4e-7f * expected[i] + 1e-30f)
          << "x[" << i << "]";
    }
  });
}

TEST(VecMathTest, SumExpShiftedMatchesElementwiseExp) {
  OnEachSet([] {
    std::vector<float> v = TestValues();
    std::vector<float> exps = v;
    const float shift = 1.5f;
    ExpShiftedInplace(exps.data(), exps.size(), shift);
    double expected = 0.0;
    for (float e : exps) expected += static_cast<double>(e);
    const double total = SumExpShifted(v.data(), v.size(), shift);
    EXPECT_NEAR(total, expected, 1e-5 * expected);
  });
}

TEST(VecMathTest, PositionIndependence) {
  OnEachSet([] {
    // f(x) must not depend on where x sits relative to the vector width: the
    // batched scorer applies these over lanes x d buffers while the single
    // path uses length-d buffers, and the two must agree bit for bit. Run
    // every value at every offset 0..8 and demand identical bits.
    std::vector<float> probe = {-3.7f, -0.002f, 0.0f, 0.41f, 2.9f, 17.0f};
    for (float x : probe) {
      float at_zero[1] = {x};
      TanhInplace(at_zero, 1);
      float sig_zero[1] = {x};
      SigmoidInplace(sig_zero, 1);
      for (size_t offset = 0; offset < 9; ++offset) {
        std::vector<float> buf(offset + 9, 0.125f);
        buf[offset] = x;
        std::vector<float> sig = buf;
        TanhInplace(buf.data(), buf.size());
        SigmoidInplace(sig.data(), sig.size());
        EXPECT_EQ(buf[offset], at_zero[0]) << "tanh offset " << offset;
        EXPECT_EQ(sig[offset], sig_zero[0]) << "sigmoid offset " << offset;
      }
    }
  });
}

TEST(VecMathTest, MulTanhIntoMatchesSeparateOps) {
  OnEachSet([] {
    std::vector<float> o = TestValues();
    std::vector<float> c = TestValues();
    std::vector<float> t = c;
    TanhInplace(t.data(), t.size());
    std::vector<float> h(o.size());
    MulTanhInto(o.data(), c.data(), h.data(), o.size());
    for (size_t i = 0; i < h.size(); ++i) {
      EXPECT_EQ(h[i], o[i] * t[i]) << "i=" << i;
    }
  });
}

TEST(VecMathTest, SpecialValuesArePositionIndependent) {
  // NaN, infinities, signed zeros, both clamps, out-of-range and subnormal
  // inputs follow the vector instructions' semantics (vecmath.h), so each
  // gives the same bits in a vector lane as in the scalar tail: at every
  // offset 0..8 of a 17-wide buffer as alone. A -ffast-math build (the
  // native preset) lets GCC contract and reassociate the vector loop, the
  // scalar tail and the constant-folded clamp branches differently, so
  // there the clamped values differ in their low bits.
#if defined(__ASSOCIATIVE_MATH__)
  GTEST_SKIP() << "-ffast-math build: clamped values' bits depend on context";
#endif
  using Apply = void (*)(std::vector<float>&);
  const std::pair<const char*, Apply> functions[] = {
      {"sigmoid",
       [](std::vector<float>& v) { SigmoidInplace(v.data(), v.size()); }},
      {"tanh", [](std::vector<float>& v) { TanhInplace(v.data(), v.size()); }},
      {"multanh",
       [](std::vector<float>& v) {
         const std::vector<float> o(v.size(), 0.75f);
         MulTanhInto(o.data(), v.data(), v.data(), v.size());
       }},
      {"exp",
       [](std::vector<float>& v) {
         ExpShiftedInplace(v.data(), v.size(), 0.5f);
       }},
  };
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float lower_clamp = -87.3365478515625f;
  const float subnormal = 1e-40f;
  const float values[] = {nan,   -nan,   inf,         -inf,   0.0f,
                          -0.0f, 88.0f,  -88.0f,      100.0f, -100.0f,
                          lower_clamp, subnormal};
  OnEachSet([&] {
    for (const auto& [name, apply] : functions) {
      for (float x : values) {
        std::vector<float> alone = {x};
        apply(alone);
        for (size_t offset = 0; offset < 9; ++offset) {
          std::vector<float> buf(17, 0.125f);
          buf[offset] = x;
          apply(buf);
          EXPECT_EQ(std::bit_cast<uint32_t>(buf[offset]),
                    std::bit_cast<uint32_t>(alone[0]))
              << name << "(" << x << ") at offset " << offset << ": "
              << buf[offset] << " vs " << alone[0];
        }
      }
    }
  });
}

TEST(VecMathTest, AddBiasMaxMatchesLoops) {
  // One pass of AddBiasMax equals the bias loop and a std::max loop from
  // -inf: the same values, and the same max up to the sign of a tied zero,
  // which leaves the softmax denominator unchanged.
  const float inf = std::numeric_limits<float>::infinity();
  struct Row {
    const char* name;
    std::vector<float> v;
    std::vector<float> bias;
  };
  Rng rng(12);
  OnEachSet([&] {
    for (size_t n : {0, 1, 7, 8, 9, 1828}) {
      std::vector<float> random(n), bias(n);
      for (size_t j = 0; j < n; ++j) {
        random[j] = static_cast<float>(rng.Normal(0.0, 4.0));
        bias[j] = static_cast<float>(rng.Normal(0.0, 1.0));
      }
      Row rows[] = {{"random", random, bias},
                    {"-inf entries", random, bias},
                    {"all -inf", std::vector<float>(n, -inf), bias},
                    {"all negative", random, bias},
                    {"zero tie", random, bias}};
      for (size_t j = 0; j < n; ++j) {
        if (j % 3 == 0) rows[1].v[j] = -inf;
        rows[3].v[j] = -1.0f - std::abs(random[j]);
        // -0 and +0 entries among negative ones, with a -0 bias on them,
        // which keeps each zero's sign.
        rows[4].v[j] = j % 2 == 1   ? -1.0f - std::abs(random[j])
                       : j % 4 == 0 ? -0.0f
                                    : 0.0f;
        if (j % 2 == 0) rows[4].bias[j] = -0.0f;
      }
      for (Row& row : rows) {
        std::vector<float> want = row.v;
        float want_max = -inf;
        for (size_t j = 0; j < n; ++j) {
          want[j] += row.bias[j];
          want_max = std::max(want_max, want[j]);
        }
        const float got_max = AddBiasMax(row.v.data(), row.bias.data(), n);
        for (size_t j = 0; j < n; ++j) {
          ASSERT_EQ(std::bit_cast<uint32_t>(row.v[j]),
                    std::bit_cast<uint32_t>(want[j]))
              << row.name << " n=" << n << " j=" << j;
        }
        EXPECT_EQ(got_max, want_max) << row.name << " n=" << n;
        if (want_max > -inf) {
          EXPECT_EQ(SumExpShifted(row.v.data(), n, got_max),
                    SumExpShifted(want.data(), n, want_max))
              << row.name << " n=" << n;
        }
      }
    }
  });
}

}  // namespace
}  // namespace ncl::nn
