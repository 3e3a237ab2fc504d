#include "nn/lstm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace ncl::nn {
namespace {

TEST(LstmCellTest, CreatesTwelveParameters) {
  ParameterStore store;
  Rng rng(1);
  LstmCell cell("enc", 4, 6, &store, rng);
  EXPECT_EQ(store.size(), 12u);
  EXPECT_NE(store.Find("enc.W_i"), nullptr);
  EXPECT_NE(store.Find("enc.U_c"), nullptr);
  EXPECT_NE(store.Find("enc.b_o"), nullptr);
  EXPECT_EQ(cell.input_dim(), 4u);
  EXPECT_EQ(cell.hidden_dim(), 6u);
}

TEST(LstmCellTest, ForgetBiasInitialisedToOne) {
  ParameterStore store;
  Rng rng(2);
  LstmCell cell("enc", 3, 3, &store, rng);
  const Parameter* bf = store.Find("enc.b_f");
  ASSERT_NE(bf, nullptr);
  for (size_t i = 0; i < bf->value.size(); ++i) EXPECT_EQ(bf->value[i], 1.0f);
}

TEST(LstmCellTest, StepProducesBoundedHiddenState) {
  ParameterStore store;
  Rng rng(3);
  LstmCell cell("enc", 4, 5, &store, rng);
  Tape tape;
  LstmState state = cell.InitialState(tape);
  Matrix x = Matrix::RandomUniform(4, 1, 2.0f, rng);
  for (int t = 0; t < 8; ++t) {
    state = cell.Step(tape, tape.Constant(x), state);
    const Matrix& h = tape.Value(state.h);
    for (size_t i = 0; i < h.size(); ++i) {
      // h = o * tanh(c): strictly inside (-1, 1).
      EXPECT_GT(h[i], -1.0f);
      EXPECT_LT(h[i], 1.0f);
    }
  }
}

TEST(LstmCellTest, InitialStateIsZero) {
  ParameterStore store;
  Rng rng(4);
  LstmCell cell("enc", 2, 3, &store, rng);
  Tape tape;
  LstmState state = cell.InitialState(tape);
  EXPECT_EQ(tape.Value(state.h).Sum(), 0.0);
  EXPECT_EQ(tape.Value(state.c).Sum(), 0.0);
}

TEST(LstmCellTest, InitialStateFromHiddenUsesGivenVector) {
  ParameterStore store;
  Rng rng(5);
  LstmCell cell("dec", 2, 3, &store, rng);
  Tape tape;
  Matrix h0 = Matrix::FromValues(3, 1, {0.1f, -0.2f, 0.3f});
  LstmState state = cell.InitialStateFromHidden(tape, tape.Constant(h0));
  EXPECT_FLOAT_EQ(tape.Value(state.h)[1], -0.2f);
  EXPECT_EQ(tape.Value(state.c).Sum(), 0.0);
}

TEST(LstmCellTest, DifferentInputsDifferentStates) {
  ParameterStore store;
  Rng rng(6);
  LstmCell cell("enc", 3, 4, &store, rng);
  Tape tape;
  LstmState s0 = cell.InitialState(tape);
  Matrix xa = Matrix::FromValues(3, 1, {1.0f, 0.0f, 0.0f});
  Matrix xb = Matrix::FromValues(3, 1, {0.0f, 1.0f, 0.0f});
  LstmState sa = cell.Step(tape, tape.Constant(xa), s0);
  LstmState sb = cell.Step(tape, tape.Constant(xb), s0);
  double diff = 0.0;
  for (size_t i = 0; i < 4; ++i) {
    diff += std::abs(tape.Value(sa.h)[i] - tape.Value(sb.h)[i]);
  }
  EXPECT_GT(diff, 1e-4);
}

TEST(LstmCellTest, StateDependsOnHistory) {
  ParameterStore store;
  Rng rng(7);
  LstmCell cell("enc", 2, 4, &store, rng);
  Tape tape;
  Matrix xa = Matrix::FromValues(2, 1, {1.0f, 0.0f});
  Matrix xb = Matrix::FromValues(2, 1, {0.0f, 1.0f});
  // Sequence [a, b] vs [b, b]: final states must differ.
  LstmState s1 = cell.InitialState(tape);
  s1 = cell.Step(tape, tape.Constant(xa), s1);
  s1 = cell.Step(tape, tape.Constant(xb), s1);
  LstmState s2 = cell.InitialState(tape);
  s2 = cell.Step(tape, tape.Constant(xb), s2);
  s2 = cell.Step(tape, tape.Constant(xb), s2);
  double diff = 0.0;
  for (size_t i = 0; i < 4; ++i) {
    diff += std::abs(tape.Value(s1.h)[i] - tape.Value(s2.h)[i]);
  }
  EXPECT_GT(diff, 1e-5);
}

TEST(LstmCellTest, GradientsFlowThroughSequence) {
  // Finite-difference check of one LSTM weight through a 3-step unroll.
  ParameterStore store;
  Rng rng(8);
  LstmCell cell("enc", 2, 3, &store, rng);
  Matrix x = Matrix::RandomUniform(2, 1, 1.0f, rng);

  auto build = [&](Tape& tape) {
    LstmState state = cell.InitialState(tape);
    for (int t = 0; t < 3; ++t) state = cell.Step(tape, tape.Constant(x), state);
    return tape.SoftmaxCrossEntropy(state.h, 0);
  };

  Parameter* w = store.Find("enc.W_i");
  ASSERT_NE(w, nullptr);
  store.ZeroGrads();
  Tape tape;
  tape.Backward(build(tape));
  Matrix analytic = w->grad;

  const float eps = 1e-3f;
  for (size_t i = 0; i < std::min<size_t>(w->value.size(), 6); ++i) {
    float saved = w->value[i];
    w->value[i] = saved + eps;
    Tape plus;
    float f_plus = plus.Value(build(plus))[0];
    w->value[i] = saved - eps;
    Tape minus;
    float f_minus = minus.Value(build(minus))[0];
    w->value[i] = saved;
    float numeric = (f_plus - f_minus) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, 2e-2 * std::max(1.0f, std::abs(numeric)));
  }
}

TEST(LstmCellTest, DeterministicGivenSeed) {
  auto run = [] {
    ParameterStore store;
    Rng rng(99);
    LstmCell cell("enc", 3, 3, &store, rng);
    Tape tape;
    LstmState state = cell.InitialState(tape);
    Matrix x = Matrix::FromValues(3, 1, {0.5f, -0.5f, 0.25f});
    state = cell.Step(tape, tape.Constant(x), state);
    return tape.Value(state.h)[0];
  };
  EXPECT_EQ(run(), run());
}

TEST(LstmCellTest, PackedStepMatchesTapeStep) {
  // The value step on Pack()'s gates agrees with the tape's Step within
  // 1e-6, and a lane's bits do not depend on how many lanes share its call
  // (1, 3 or 20 rows). Widths that are not multiples of 8 leave a k tail
  // and a partial panel.
  ParameterStore store;
  Rng rng(10);
  const size_t in = 11, d = 13, rows = 20;
  LstmCell cell("enc", in, d, &store, rng);
  const LstmCell::PackedGates gates = cell.Pack();
  auto random = [&](size_t n) {
    std::vector<float> v(n);
    for (float& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
    return v;
  };
  const std::vector<float> x = random(rows * in), h = random(rows * d),
                           c = random(rows * d);

  // Each lane through calls of `width` rows (the last may be shorter).
  auto step = [&](size_t width) {
    std::vector<float> out(2 * rows * d), scratch(2 * width * d);
    for (size_t r = 0; r < rows; r += width) {
      const size_t n = std::min(width, rows - r);
      cell.StepValueBatch(gates, n, x.data() + r * in, h.data() + r * d,
                          c.data() + r * d, out.data() + r * d,
                          out.data() + (rows + r) * d, scratch.data());
    }
    return out;
  };
  const std::vector<float> batched = step(rows);
  for (size_t width : {1, 3}) {
    const std::vector<float> narrow = step(width);
    for (size_t i = 0; i < batched.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(narrow[i]),
                std::bit_cast<uint32_t>(batched[i]))
          << width << "-row calls, element " << i;
    }
  }

  for (size_t r = 0; r < rows; ++r) {
    Tape tape;
    auto column = [&](const std::vector<float>& v, size_t width) {
      return tape.Constant(Matrix::FromValues(
          width, 1, {v.begin() + r * width, v.begin() + (r + 1) * width}));
    };
    const LstmState next =
        cell.Step(tape, column(x, in), LstmState{column(h, d), column(c, d)});
    for (size_t j = 0; j < d; ++j) {
      EXPECT_NEAR(batched[r * d + j], tape.Value(next.h)[j], 1e-6)
          << "h row " << r << " j=" << j;
      EXPECT_NEAR(batched[(rows + r) * d + j], tape.Value(next.c)[j], 1e-6)
          << "c row " << r << " j=" << j;
    }
  }
}

}  // namespace
}  // namespace ncl::nn
