// Named trainable parameters and their container.
//
// A Parameter pairs a value matrix with a gradient accumulator of the same
// shape, plus SgdOptimizer's momentum buffer. ParameterStore owns all
// parameters of a model, provides name-based lookup, gradient bookkeeping
// (zeroing, global-norm clipping) and binary (de)serialisation of the values
// for model checkpoints.

#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "nn/matrix.h"
#include "util/random.h"
#include "util/status.h"

namespace ncl::nn {

/// How a freshly created parameter is initialised.
enum class Init {
  kZero,
  kXavier,          ///< Glorot uniform; weights.
  kSmallUniform,    ///< uniform in [-0.08, 0.08]; LSTM-style init.
};

/// \brief One trainable tensor: value + gradient (+ momentum).
struct Parameter {
  std::string name;
  Matrix value;
  Matrix grad;
  // SgdOptimizer's momentum buffer, allocated on its first momentum step.
  // Checkpoints store only `value`.
  Matrix velocity;
};

/// \brief Owner of a model's parameters.
class ParameterStore {
 public:
  ParameterStore() = default;
  ParameterStore(const ParameterStore&) = delete;
  ParameterStore& operator=(const ParameterStore&) = delete;
  ParameterStore(ParameterStore&&) = default;
  ParameterStore& operator=(ParameterStore&&) = default;

  /// Create a parameter; the name must be unique. Returns a stable pointer
  /// (parameters are never reallocated or removed).
  Parameter* Create(std::string_view name, size_t rows, size_t cols, Init init,
                    Rng& rng);

  /// Find a parameter by name; nullptr if absent.
  Parameter* Find(std::string_view name);
  const Parameter* Find(std::string_view name) const;

  /// All parameters in creation order.
  const std::vector<std::unique_ptr<Parameter>>& parameters() const {
    return params_;
  }

  size_t size() const { return params_.size(); }

  /// Total number of scalar weights.
  size_t NumWeights() const;

  /// Reset every gradient to zero.
  void ZeroGrads();

  /// Global L2 norm across all gradients.
  double GradNorm() const;

  /// Scale all gradients so the global norm is at most `max_norm`.
  void ClipGradients(double max_norm);

  /// Serialise all parameter values (not gradients) to a binary stream.
  Status Save(const std::string& path) const;

  /// Load values into matching parameters (by name and shape). Every stored
  /// parameter must exist in this store with the same shape.
  Status Load(const std::string& path);

  /// Deep-copy parameter values from another store (names/shapes must match).
  Status CopyValuesFrom(const ParameterStore& other);

 private:
  std::vector<std::unique_ptr<Parameter>> params_;
  std::unordered_map<std::string, size_t> index_;
};

}  // namespace ncl::nn
