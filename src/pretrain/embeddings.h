// Word embedding table with similarity queries.
//
// The product of the pre-training phase (§4.2): a vocabulary Ω' (words from
// concept descriptions *and* unlabeled snippets) plus one d-dimensional
// vector per word. The online query rewriter (§5 Phase I) uses cosine
// nearest-neighbour queries over this table, and COM-AID initialises its
// embedding parameter from it.

#pragma once

#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "nn/matrix.h"
#include "text/vocabulary.h"
#include "util/status.h"

namespace ncl::pretrain {

/// \brief Immutable (after construction) word-vector table.
class WordEmbeddings {
 public:
  WordEmbeddings() = default;
  WordEmbeddings(text::Vocabulary vocab, nn::Matrix vectors);

  size_t dim() const { return vectors_.cols(); }
  size_t size() const { return vocab_.size(); }

  const text::Vocabulary& vocabulary() const { return vocab_; }
  const nn::Matrix& vectors() const { return vectors_; }

  /// Row view of a word's vector. Requires a valid id.
  const float* VectorOf(text::WordId id) const;

  /// L2 norm of a word's vector (precomputed). Requires a valid id.
  double NormOf(text::WordId id) const { return norms_[static_cast<size_t>(id)]; }

  /// Cosine similarity between two in-vocabulary words.
  double Cosine(text::WordId a, text::WordId b) const;

  /// \brief k nearest words by cosine similarity to `id`, excluding `id`
  /// itself. When `filter` is provided only words it accepts are returned
  /// (e.g. restrict to the concept-description vocabulary Ω per §5).
  std::vector<std::pair<text::WordId, double>> Nearest(
      text::WordId id, size_t k,
      const std::function<bool(text::WordId)>& filter = nullptr) const;

  /// Binary (de)serialisation.
  Status Save(const std::string& path) const;
  static Result<WordEmbeddings> Load(const std::string& path);

 private:
  text::Vocabulary vocab_;
  nn::Matrix vectors_;           // V x d
  std::vector<double> norms_;    // per-row L2 norms, precomputed
};

}  // namespace ncl::pretrain
