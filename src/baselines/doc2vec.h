// Doc2Vec / Paragraph Vectors (Le & Mikolov, ICML 2014 [26]).
//
// PV-DBOW with negative sampling: each document owns a vector trained to
// predict the words it contains; unseen documents (queries) are embedded by
// gradient inference with the word-prediction weights frozen. The linker
// tags each concept's canonical description and aliases as documents of
// that concept and ranks concepts by the best cosine similarity between the
// inferred query vector and the concept's document vectors.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "linking/linker_interface.h"
#include "nn/matrix.h"
#include "ontology/ontology.h"
#include "text/vocabulary.h"
#include "util/random.h"

namespace ncl::baselines {

/// PV-DBOW hyperparameters.
struct Doc2VecConfig {
  size_t dim = 90;           ///< paper: Doc2Vec performs best near d=90
  size_t negatives = 5;
  size_t epochs = 20;
  double learning_rate = 0.05;
  size_t infer_epochs = 30;  ///< gradient steps for unseen documents
  uint64_t min_count = 1;
  uint64_t seed = 77;
};

/// \brief Trained PV-DBOW model.
class Doc2Vec {
 public:
  /// Train over `documents` (token sequences).
  Doc2Vec(const std::vector<std::vector<std::string>>& documents,
          const Doc2VecConfig& config);

  size_t dim() const { return config_.dim; }
  size_t num_documents() const { return doc_vectors_.rows(); }

  /// Infer a vector for an unseen document (word weights frozen).
  std::vector<float> Infer(const std::vector<std::string>& tokens,
                           uint64_t seed = 123) const;

  /// Cosine between an inferred vector and a trained document vector.
  double Cosine(const std::vector<float>& inferred, size_t doc) const;

 private:
  Doc2VecConfig config_;
  text::Vocabulary vocab_;
  nn::Matrix doc_vectors_;   // D x dim (input side)
  nn::Matrix word_outputs_;  // V x dim (output side, frozen at inference)
  std::vector<std::vector<text::WordId>> docs_;
  std::unique_ptr<AliasSampler> noise_;
};

/// \brief Concept linker over a Doc2Vec model.
class Doc2VecLinker : public linking::ConceptLinker {
 public:
  Doc2VecLinker(
      const ontology::Ontology& onto,
      const std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>>&
          aliases,
      Doc2VecConfig config = {});

  std::string name() const override { return "Doc2Vec"; }

  linking::Ranking Link(const std::vector<std::string>& query,
                        size_t k) const override;

 private:
  const ontology::Ontology& onto_;
  std::unique_ptr<Doc2Vec> model_;
  /// Document index -> owning concept.
  std::vector<ontology::ConceptId> doc_concepts_;
};

}  // namespace ncl::baselines
