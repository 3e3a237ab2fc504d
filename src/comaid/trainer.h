// COM-AID refinement-phase training (§4.2).
//
// Maximum-likelihood training over ⟨d^c, d^c_j⟩ pairs (canonical description
// in, alias out) with mini-batch SGD: Eq. 10's objective is the mean
// negative log-likelihood over the training pairs. Gradients flow through
// the decoder, both attentions, the encoder, the ancestor encodings and the
// word embeddings, exactly as the paper describes for back-propagation.

#pragma once

#include <functional>
#include <vector>

#include "comaid/model.h"
#include "nn/optimizer.h"

namespace ncl::comaid {

/// One training pair: decode `target` from `concept_id`.
struct TrainingPair {
  ontology::ConceptId concept_id = ontology::kInvalidConcept;
  std::vector<text::WordId> target;
};

/// Training hyperparameters.
struct TrainConfig {
  size_t epochs = 8;
  size_t batch_size = 16;
  double learning_rate = 0.1;
  double momentum = 0.9;
  double clip_norm = 5.0;
  /// Learning-rate decay factor applied after each epoch.
  double lr_decay = 0.95;
  uint64_t shuffle_seed = 31;
  /// Optional per-epoch callback: (epoch index, mean loss).
  std::function<void(size_t, double)> on_epoch;
};

/// \brief Convert labeled snippets to training pairs using the model vocab.
std::vector<TrainingPair> MakeTrainingPairs(
    const ComAidModel& model,
    const std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>>&
        snippets);

/// \brief Training pairs augmented with *residual* targets.
///
/// For every alias this adds a second pair whose target is the alias with
/// the words of the concept's canonical description removed — the exact
/// target distribution the online Phase II scores under shared-word
/// removal (§5), including the empty-residue case that decodes straight to
/// <eos>. Aligning training with that inference-time transformation is
/// what lets raw log-probability ranking reward lexical overlap without
/// going out of distribution.
std::vector<TrainingPair> MakeResidualAugmentedPairs(
    const ComAidModel& model,
    const std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>>&
        snippets);

/// \brief Trainer: runs the §4.2 refinement phase.
class ComAidTrainer {
 public:
  explicit ComAidTrainer(TrainConfig config) : config_(std::move(config)) {}

  /// Train `model` on `pairs`; returns the final epoch's mean loss per pair.
  double Train(ComAidModel* model, const std::vector<TrainingPair>& pairs) const;

  /// One gradient step over a batch, the step Train takes per mini-batch;
  /// returns the batch mean loss. Public so a caller can step one batch at a
  /// time and inspect the model between steps.
  double TrainBatch(ComAidModel* model, nn::SgdOptimizer* optimizer,
                    const std::vector<TrainingPair>& batch) const;

  const TrainConfig& config() const { return config_; }

 private:
  TrainConfig config_;
};

}  // namespace ncl::comaid
