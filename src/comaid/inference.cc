// The concept-encoding row pool: warm-up and invalidation (see
// comaid/inference.h).
//
// The warm-up mirrors the encoder half of ComAidModel::Forward on raw
// values: no tape nodes, no backward closures. The decoder half lives in
// batch_inference.cc.

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
        registry.GetCounter("ncl.concept_cache.invalidations"),
        registry.GetCounter("ncl.concept_cache.evictions")};
  }();
  return metrics;
}

}  // namespace internal

size_t ComAidModel::PrecomputeConceptEncodings() const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_ready_.load(std::memory_order_relaxed)) return 0;
  const size_t d = config_.dim;
  const size_t num_concepts = concept_words_.size() - 1;  // ids 1..n; 0 = root

  // One allocation, made by the calling thread; the helpers only fill
  // values.
  rows_.assign(first_row_.back() * d, 0.0f);
  // Per worker: h_0, the cell, and the 2d gate floats StepValueBatch needs.
  std::vector<float> scratch(NumCores() * 4 * d);

  // Encoder pass over each canonical description, keeping every h_t (the
  // text attention needs the full state sequence, Eqs. 5-6).
  ParallelForOnCores(num_concepts, [&](size_t worker, size_t i) {
    const auto id = static_cast<ontology::ConceptId>(i + 1);
    const auto& words = concept_words_[i + 1];
    NCL_DCHECK(!words.empty());
    float* h0 = scratch.data() + worker * 4 * d;
    float* cell = h0 + d;
    float* gates = h0 + 2 * d;
    std::fill(h0, h0 + 2 * d, 0.0f);
    float* states = EncodingRows(id);
    const float* h_prev = h0;
    for (size_t t = 0; t < words.size(); ++t) {
      float* h_out = states + t * d;
      encoder_->StepValueBatch(1, EmbeddingRow(words[t]), h_prev, cell, h_out,
                               cell, gates);
      h_prev = h_out;
    }
  });

  // Structural context (Def. 4.1): a slot's representation is that
  // concept's final encoder state (Eq. 7 shares the encoder), so each row
  // is a copy of a final row the pass above wrote. Duplicate slots keep
  // duplicate rows so the attention softmax matches the tape path's
  // repeated values.
  if (config_.structural_attention) {
    ParallelForOnCores(num_concepts, [&](size_t, size_t i) {
      const auto id = static_cast<ontology::ConceptId>(i + 1);
      float* row = EncodingRows(id) + concept_words_[i + 1].size() * d;
      for (ontology::ConceptId slot :
           onto_->AncestorContext(id, config_.beta)) {
        const float* state = FinalState(slot);
        row = std::copy(state, state + d, row);
      }
    });
  }

  internal::GetConceptCacheMetrics().fills->Increment(num_concepts);
  pool_ready_.store(true, std::memory_order_release);
  return num_concepts;
}

void ComAidModel::InvalidateConceptEncodings() const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  const auto& metrics = internal::GetConceptCacheMetrics();
  metrics.invalidations->Increment();
  if (pool_ready_.exchange(false, std::memory_order_relaxed)) {
    metrics.evictions->Increment(concept_words_.size() - 1);
  }
  std::vector<float>().swap(rows_);  // release the memory, not just the size
}

void ComAidModel::NotifyWeightsChanged() {
  weights_version_.fetch_add(1, std::memory_order_acq_rel);
  InvalidateConceptEncodings();
}

}  // namespace ncl::comaid
