// Concept-encoding cache fills and invalidation (see comaid/inference.h).
//
// FillConceptEncoding mirrors the encoder half of ComAidModel::Forward on
// raw Matrix values: no tape nodes, no backward closures. The decoder half
// lives in batch_inference.cc.

#include <algorithm>

#include "comaid/model.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace ncl::comaid {

namespace internal {

const ConceptCacheMetrics& GetConceptCacheMetrics() {
  static const ConceptCacheMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return ConceptCacheMetrics{
        registry.GetCounter("ncl.concept_cache.hits"),
        registry.GetCounter("ncl.concept_cache.misses"),
        registry.GetCounter("ncl.concept_cache.fills"),
        registry.GetCounter("ncl.concept_cache.fill_races"),
        registry.GetCounter("ncl.concept_cache.invalidations"),
        registry.GetCounter("ncl.concept_cache.evictions")};
  }();
  return metrics;
}

}  // namespace internal

std::unique_ptr<ConceptEncoding> ComAidModel::NewConceptEncoding(
    ontology::ConceptId concept_id) const {
  auto encoding = std::make_unique<ConceptEncoding>();
  encoding->encoder_states = nn::Matrix(
      concept_words_[static_cast<size_t>(concept_id)].size(), config_.dim);
  if (config_.structural_attention) {
    encoding->ancestors =
        nn::Matrix(static_cast<size_t>(config_.beta), config_.dim);
  }
  return encoding;
}

void ComAidModel::FillConceptEncoding(ontology::ConceptId concept_id,
                                      float* scratch,
                                      ConceptEncoding* out) const {
  const size_t d = config_.dim;
  const auto& words = concept_words_[static_cast<size_t>(concept_id)];
  NCL_DCHECK(!words.empty());

  // Encoder pass over the canonical description, keeping every h_t (the
  // text attention needs the full state sequence, Eqs. 5-6).
  float* zero = scratch;  // h_0
  float* cell = scratch + d;
  float* gates = scratch + 2 * d;
  std::fill(zero, zero + 2 * d, 0.0f);
  const float* h_prev = zero;
  for (size_t t = 0; t < words.size(); ++t) {
    float* h_out = out->encoder_states.row_data(t);
    encoder_->StepValue(EmbeddingRow(words[t]), h_prev, cell, h_out, cell,
                        gates);
    h_prev = h_out;
  }

  // Structural context (Def. 4.1, as Ontology::AncestorContext walks it):
  // the β nearest ancestors, padded with the depth-1 one, which is the
  // concept itself at depth 1. A slot's representation is that concept's
  // final encoder state, so the row is a copy of its cached encoding's
  // (Eq. 7 shares the encoder). Duplicate slots keep duplicate rows so the
  // attention softmax matches the tape path's repeated values.
  ontology::ConceptId slot_id = concept_id;
  for (size_t r = 0; r < out->ancestors.rows(); ++r) {
    const ontology::ConceptId parent = onto_->Get(slot_id).parent;
    if (parent != ontology::kRootConcept) slot_id = parent;
    const float* state = out->final_state();
    if (slot_id != concept_id) {
      const ConceptEncoding* ancestor =
          encoding_cache_->Peek(static_cast<size_t>(slot_id));
      state = (ancestor != nullptr ? *ancestor : ComputeEncoding(slot_id))
                  .final_state();
    }
    std::copy(state, state + d, out->ancestors.row_data(r));
  }
}

const ConceptEncoding& ComAidModel::ComputeEncoding(
    ontology::ConceptId concept_id) const {
  std::unique_ptr<ConceptEncoding> encoding = NewConceptEncoding(concept_id);
  std::vector<float> scratch(EncoderScratchFloats());
  FillConceptEncoding(concept_id, scratch.data(), encoding.get());
  return *encoding_cache_->Put(static_cast<size_t>(concept_id),
                               std::move(encoding));
}

const ConceptEncoding& ComAidModel::EncodingFor(
    ontology::ConceptId concept_id) const {
  const size_t slot = static_cast<size_t>(concept_id);
  if (const ConceptEncoding* cached = encoding_cache_->Get(slot)) {
    return *cached;
  }
  return ComputeEncoding(concept_id);
}

size_t ComAidModel::PrecomputeConceptEncodings() const {
  // A structural context names only shallower concepts, so filling one
  // depth level at a time, shallowest first, finds every ancestor row
  // cached.
  std::vector<std::vector<ontology::ConceptId>> levels(
      static_cast<size_t>(onto_->max_depth()) + 1);
  for (ontology::ConceptId id : onto_->AllConcepts()) {
    if (encoding_cache_->Peek(static_cast<size_t>(id)) == nullptr) {
      levels[static_cast<size_t>(onto_->Get(id).depth)].push_back(id);
    }
  }
  // The calling thread allocates and installs; the helpers only fill
  // values. Encodings allocated on the helpers would stay in their glibc
  // malloc arenas: perfbench icd10_93k rss_mb read 247.3 MiB that way, 237.4
  // this way.
  const size_t scratch_floats = EncoderScratchFloats();
  std::vector<float> scratch(NumCores() * scratch_floats);
  size_t computed = 0;
  for (const auto& level : levels) {
    std::vector<std::unique_ptr<ConceptEncoding>> encodings;
    encodings.reserve(level.size());
    for (ontology::ConceptId id : level) {
      encodings.push_back(NewConceptEncoding(id));
    }
    ParallelForOnCores(level.size(), [&](size_t worker, size_t i) {
      FillConceptEncoding(level[i], scratch.data() + worker * scratch_floats,
                          encodings[i].get());
    });
    for (size_t i = 0; i < level.size(); ++i) {
      encoding_cache_->Put(static_cast<size_t>(level[i]),
                           std::move(encodings[i]));
    }
    computed += level.size();
  }
  return computed;
}

void ComAidModel::InvalidateConceptEncodings() const { encoding_cache_->Clear(); }

void ComAidModel::NotifyWeightsChanged() {
  weights_version_.fetch_add(1, std::memory_order_acq_rel);
  InvalidateConceptEncodings();
}

}  // namespace ncl::comaid
