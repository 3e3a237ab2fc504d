// Mini-batch SGD over a ParameterStore.
//
// The paper trains COM-AID with mini-batch SGD (§4.2); ComAidTrainer runs
// it with classical momentum. Every step clips the global gradient norm
// first.

#pragma once

#include "nn/parameter.h"

namespace ncl::nn {

/// \brief Stochastic gradient descent with optional classical momentum.
class SgdOptimizer {
 public:
  explicit SgdOptimizer(double learning_rate, double momentum = 0.0,
                        double clip_norm = 5.0)
      : learning_rate_(learning_rate),
        momentum_(momentum),
        clip_norm_(clip_norm) {}

  /// Apply one update using the gradients currently accumulated in `store`,
  /// then zero them: clip the gradients to `clip_norm`, then v = μ·v + g and
  /// w -= lr·v (w -= lr·g when μ = 0).
  void Step(ParameterStore* store);

  /// Current learning rate.
  double learning_rate() const { return learning_rate_; }
  void set_learning_rate(double lr) { learning_rate_ = lr; }

  /// Maximum global gradient norm (<= 0 disables clipping).
  double clip_norm() const { return clip_norm_; }
  void set_clip_norm(double clip) { clip_norm_ = clip; }

 private:
  double learning_rate_;
  double momentum_;
  double clip_norm_;
};

}  // namespace ncl::nn
