// The concept-encoding row pool: warm-up and invalidation (see
// comaid/inference.h).
//
// The warm-up mirrors the encoder half of ComAidModel::Forward on raw
// values: no tape nodes, no backward closures. It also packs the decoder's
// fixed weights for the decoder half, which lives in batch_inference.cc.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "comaid/model.h"
#include "util/parallel_for.h"

namespace ncl::comaid {

namespace internal {

const ConceptCacheMetrics& GetConceptCacheMetrics() {
  static const ConceptCacheMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return ConceptCacheMetrics{
        registry.GetCounter("ncl.concept_cache.hits"),
        registry.GetCounter("ncl.concept_cache.misses"),
        registry.GetCounter("ncl.concept_cache.fills"),
        registry.GetCounter("ncl.concept_cache.encoder_steps"),
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

  // The first-word subtrees, as preorder node ranges
  // [subtrees[s], subtrees[s + 1]), and the trie's depth.
  std::vector<uint32_t> subtrees;
  size_t max_depth = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].depth == 1) subtrees.push_back(static_cast<uint32_t>(i));
    max_depth = std::max<size_t>(max_depth, nodes_[i].depth);
  }
  subtrees.push_back(static_cast<uint32_t>(nodes_.size()));

  // The scorer's packed decoder weights, and the encoder gates this pass
  // steps with.
  auto pack = [](const nn::Parameter* p) {
    return nn::PackNT(p->value.data(), p->value.rows(), p->value.cols(),
                      p->value.cols());
  };
  packed_ = {decoder_->Pack(), pack(w_d_), pack(w_s_)};
  const nn::LstmCell::PackedGates encoder_gates = encoder_->Pack();

  // One allocation, made by the calling thread; the helpers only fill
  // values.
  rows_.assign(nodes_.size() * d, 0.0f);
  // Per worker: the 2d gate floats StepValueBatch needs, then one cell per
  // depth 0..max_depth (depth 0 is the empty prefix and stays zero, so it
  // is also h_0), and the last node stepped at each depth.
  const size_t stride = (max_depth + 3) * d;
  std::vector<float> scratch(NumCores() * stride);
  std::vector<uint32_t> last_node(NumCores() * (max_depth + 1));

  // Walk each subtree in preorder: a node steps from its parent, the last
  // node before it one level up, whose h is that node's pool row and whose
  // cell is still on this worker's stack. So every row holds, bit for bit,
  // the state a one-lane encoder pass over a description containing that
  // prefix reaches after it: the same step on the same inputs.
  ParallelForOnCores(subtrees.size() - 1, [&](size_t worker, size_t s) {
    float* gates = scratch.data() + worker * stride;
    float* cells = gates + 2 * d;
    uint32_t* last = last_node.data() + worker * (max_depth + 1);
    for (size_t i = subtrees[s]; i < subtrees[s + 1]; ++i) {
      const size_t depth = nodes_[i].depth;
      const float* h_prev =
          depth == 1 ? cells : rows_.data() + size_t{last[depth - 1]} * d;
      encoder_->StepValueBatch(encoder_gates, 1, EmbeddingRow(nodes_[i].word),
                               h_prev, cells + (depth - 1) * d,
                               rows_.data() + i * d, cells + depth * d, gates);
      last[depth] = static_cast<uint32_t>(i);
    }
  });

  const auto& metrics = internal::GetConceptCacheMetrics();
  metrics.fills->Increment(num_concepts);
  metrics.encoder_steps->Increment(nodes_.size());
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
  packed_ = {};
}

void ComAidModel::NotifyWeightsChanged() {
  weights_version_.fetch_add(1, std::memory_order_acq_rel);
  InvalidateConceptEncodings();
}

}  // namespace ncl::comaid
