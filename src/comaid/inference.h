// Concept-encoding counters and batch-lane types for tape-free Phase II
// scoring (§5).
//
// ScoreLogProb builds a fresh autodiff tape and re-runs the LSTM encoder
// over the candidate's canonical description for every (query, candidate)
// pair, although concept encodings are query-independent and inference
// never calls Backward. ComAidModel::ScoreLogProbFastBatch splits that work:
//
//   * Every concept's query-independent encoder outputs — the per-step
//     hidden states over its description (consumed by the text attention,
//     Eqs. 5-6) and its β structural-context representations (consumed by
//     the structure attention, Eq. 7) — live in one row pool, written only
//     by ComAidModel::PrecomputeConceptEncodings. The encoder is a
//     left-to-right LSTM started from zero, so h_t depends only on the
//     first t words: the pool holds one row per distinct description
//     prefix, and a concept names its rows by id — its prefixes' rows, then
//     each context slot's final row. The scorer runs the warm-up on first
//     use; afterwards readers check one acquire flag and index the pool.
//   * The same warm-up packs the decoder's fixed weights (its LSTM gates,
//     W_d and W_s) into 8-column panels for nn::GemmNTPacked, beside the
//     pool and under the same flag, so every decode step reads them
//     packed.
//   * BatchScoreLane is one (concept, target) pair of a scoring call; the
//     decoder itself runs lanes in lock-step (comaid/batch_inference.cc).
//
// Invalidation contract: the pool and the packed weights are functions of
// the weights. ComAidModel::NotifyWeightsChanged() (called by the trainer
// after every optimizer step, by InitializeEmbeddings, and by model
// loading) bumps the model's weights version, empties the pool and
// releases the packed weights. Weight mutation must not run concurrently
// with scoring — same contract as training itself.

#pragma once

#include <vector>

#include "obs/metrics.h"
#include "ontology/ontology.h"
#include "text/vocabulary.h"

namespace ncl::comaid {

namespace internal {

/// Pool observability, published under `ncl.concept_cache.*`. Handles are
/// resolved once (defined in inference.cc); every model in the process
/// shares them.
struct ConceptCacheMetrics {
  obs::Counter* hits;           ///< lanes scored from an already warm pool
  obs::Counter* misses;         ///< scoring calls that found the pool empty
                                ///< and warmed it (an explicit warm-up
                                ///< counts neither)
  obs::Counter* fills;          ///< concepts encoded by warm-ups
  obs::Counter* encoder_steps;  ///< encoder steps warm-ups ran: one per
                                ///< description prefix, i.e. per pool row
  obs::Counter* invalidations;  ///< InvalidateConceptEncodings calls
  obs::Counter* evictions;      ///< concepts dropped across all invalidations
};
const ConceptCacheMetrics& GetConceptCacheMetrics();
}  // namespace internal

/// \brief One candidate in a batched Phase-II scoring call.
///
/// The target is borrowed (typically the shared-word-filtered query residue
/// the linker builds per candidate) and must outlive the call; `log_prob`
/// is the output slot.
struct BatchScoreLane {
  ontology::ConceptId concept_id = 0;
  const std::vector<text::WordId>* target = nullptr;
  double log_prob = 0.0;  ///< out: log p(target | concept)
};

}  // namespace ncl::comaid
