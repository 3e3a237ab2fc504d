#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/tape.h"

namespace ncl::nn {
namespace {

/// Minimise f(w) = 0.5 * ||w - target||^2 and return the final distance.
template <typename Opt>
double MinimiseQuadratic(Opt& optimizer, size_t steps) {
  ParameterStore store;
  Rng rng(1);
  Parameter* w = store.Create("w", 4, 1, Init::kSmallUniform, rng);
  Matrix target = Matrix::FromValues(4, 1, {1.0f, -2.0f, 0.5f, 3.0f});

  for (size_t s = 0; s < steps; ++s) {
    // grad = w - target
    for (size_t i = 0; i < 4; ++i) w->grad[i] = w->value[i] - target[i];
    optimizer.Step(&store);
  }
  double distance = 0.0;
  for (size_t i = 0; i < 4; ++i) {
    double diff = w->value[i] - target[i];
    distance += diff * diff;
  }
  return std::sqrt(distance);
}

TEST(SgdOptimizerTest, PlainSgdConverges) {
  SgdOptimizer sgd(0.1);
  EXPECT_LT(MinimiseQuadratic(sgd, 200), 1e-3);
}

TEST(SgdOptimizerTest, MomentumConvergesFasterThanPlain) {
  SgdOptimizer plain(0.05, 0.0);
  SgdOptimizer momentum(0.05, 0.9);
  double d_plain = MinimiseQuadratic(plain, 40);
  double d_momentum = MinimiseQuadratic(momentum, 40);
  EXPECT_LT(d_momentum, d_plain);
}

TEST(OptimizerTest, StepZerosGradients) {
  ParameterStore store;
  Rng rng(2);
  Parameter* w = store.Create("w", 2, 1, Init::kZero, rng);
  w->grad.Fill(1.0f);
  SgdOptimizer sgd(0.1);
  sgd.Step(&store);
  EXPECT_EQ(w->grad.Sum(), 0.0);
}

TEST(OptimizerTest, SgdUpdateDirection) {
  ParameterStore store;
  Rng rng(3);
  Parameter* w = store.Create("w", 1, 1, Init::kZero, rng);
  w->value[0] = 1.0f;
  w->grad[0] = 2.0f;
  SgdOptimizer sgd(0.25, 0.0, /*clip_norm=*/0.0);
  sgd.Step(&store);
  EXPECT_FLOAT_EQ(w->value[0], 0.5f);
}

TEST(OptimizerTest, MomentumStepsAreExact) {
  ParameterStore store;
  Rng rng(6);
  Parameter* w = store.Create("w", 1, 1, Init::kZero, rng);
  w->value[0] = 1.0f;
  SgdOptimizer sgd(0.25, 0.5, /*clip_norm=*/0.0);
  // v = 0.5 * 0 + 2 = 2, then w = 1 - 0.25 * 2.
  w->grad[0] = 2.0f;
  sgd.Step(&store);
  EXPECT_EQ(w->value[0], 0.5f);
  // v = 0.5 * 2 + 4 = 5, then w = 0.5 - 0.25 * 5.
  w->grad[0] = 4.0f;
  sgd.Step(&store);
  EXPECT_EQ(w->value[0], -0.75f);
}

TEST(OptimizerTest, ClippingBoundsUpdate) {
  ParameterStore store;
  Rng rng(4);
  Parameter* w = store.Create("w", 1, 1, Init::kZero, rng);
  w->grad[0] = 1000.0f;
  SgdOptimizer sgd(1.0, 0.0, /*clip_norm=*/1.0);
  sgd.Step(&store);
  EXPECT_NEAR(w->value[0], -1.0f, 1e-5);
}

TEST(OptimizerTest, LearningRateSetter) {
  SgdOptimizer sgd(0.1);
  sgd.set_learning_rate(0.01);
  EXPECT_DOUBLE_EQ(sgd.learning_rate(), 0.01);
}

TEST(OptimizerTest, TrainsTinySoftmaxModelToLowLoss) {
  // End-to-end through the tape: learn to map a fixed input to class 2.
  ParameterStore store;
  Rng rng(5);
  Parameter* w = store.Create("w", 4, 3, Init::kXavier, rng);
  Matrix x = Matrix::FromValues(3, 1, {1.0f, 0.5f, -0.5f});
  SgdOptimizer sgd(0.5);

  double last_loss = 0.0;
  for (int step = 0; step < 100; ++step) {
    Tape tape;
    VarId loss = tape.SoftmaxCrossEntropy(
        tape.MatMul(tape.Param(w), tape.Constant(x)), 2);
    last_loss = tape.Value(loss)[0];
    tape.Backward(loss);
    sgd.Step(&store);
  }
  EXPECT_LT(last_loss, 0.05);
}

}  // namespace
}  // namespace ncl::nn
