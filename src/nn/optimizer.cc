#include "nn/optimizer.h"

namespace ncl::nn {

void SgdOptimizer::Step(ParameterStore* store) {
  if (clip_norm_ > 0.0) store->ClipGradients(clip_norm_);
  const float lr = static_cast<float>(learning_rate_);
  const float mu = static_cast<float>(momentum_);
  for (auto& p : store->parameters()) {
    if (momentum_ != 0.0) {
      Matrix& velocity = p->velocity;
      if (velocity.empty()) velocity = Matrix(p->value.rows(), p->value.cols());
      for (size_t i = 0; i < velocity.size(); ++i) {
        velocity[i] = mu * velocity[i] + p->grad[i];
        p->value[i] -= lr * velocity[i];
      }
    } else {
      p->value.Axpy(-lr, p->grad);
    }
  }
  store->ZeroGrads();
}

}  // namespace ncl::nn
