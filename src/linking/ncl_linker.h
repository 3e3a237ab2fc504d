// NCL: the two-phase online concept linker (§5).
//
// Phase I rewrites out-of-vocabulary query words (QueryRewriter) and
// retrieves k candidate concepts by TF-IDF cosine (CandidateGenerator).
// Phase II evaluates p(q|c; Θ) with the trained COM-AID model for each
// candidate and returns the candidates re-ranked by descending
// probability. Per §5, words appearing in both the canonical description
// and the query are temporarily removed before scoring. The paper scores a
// query's k candidates on ten threads (Appendix B.1); here one call of the
// batched scorer runs every candidate on the calling thread, in lock-step
// tiles of ComAidModel::kDefaultScoreLanes lanes, and serving runs queries
// in parallel on its shards (src/serve).
// LinkBatchDetailed is the one implementation of the four phases; it
// exposes per-phase wall-clock timings (the OR / CR / ED / RT split of
// Fig. 11) and per-candidate losses for the feedback controller.
// LinkDetailed and Link are one-query batches.
//
// Observability: every query publishes the same per-phase durations that
// fill PhaseTimings to the `ncl.link.*` histograms of the global metrics
// registry. A call runs under an `ncl.link_batch` trace span, with one
// `ncl.link.query` span per query (OR + CR) and one `ncl.link.score` span
// for the pooled ED pass (see src/obs/). The config is immutable after
// construction — a linker is shared across serving shards.

#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "comaid/model.h"
#include "linking/candidate_generator.h"
#include "linking/linker_interface.h"
#include "linking/query_rewriter.h"

namespace ncl::linking {

/// Online-linking knobs.
struct NclConfig {
  /// Phase-I candidate count k (paper default: 20).
  size_t k = 20;
  /// §5 Phase II: drop words shared with the candidate's canonical
  /// description before scoring.
  bool remove_shared_words = true;
  /// Optional non-uniform concept prior for MAP estimation (Eq. 11): maps
  /// concept id -> prior probability. Candidates absent from the map get
  /// `default_prior`. When empty, the uniform-prior MLE of Eq. 12 applies.
  std::unordered_map<ontology::ConceptId, double> concept_prior;
  double default_prior = 1e-6;
};

/// One Phase-II scored candidate.
struct ScoredCandidate {
  ontology::ConceptId concept_id = ontology::kInvalidConcept;
  double log_prob = 0.0;  ///< log p(q|c; Θ)
  double loss = 0.0;      ///< -log p(q|c; Θ), the Appendix-A Loss value
};

/// Wall-clock microseconds per online phase (Fig. 11 decomposition).
struct PhaseTimings {
  double rewrite_us = 0.0;   ///< OR: out-of-vocabulary word replacement
  double retrieve_us = 0.0;  ///< CR: candidate concept retrieval
  double score_us = 0.0;     ///< ED: encode-decode probability evaluation
  double rank_us = 0.0;      ///< RT: ranking
  double total_us() const { return rewrite_us + retrieve_us + score_us + rank_us; }
};

/// \brief The NCL linker.
class NclLinker : public ConceptLinker {
 public:
  /// All pointers must outlive the linker; `rewriter` may be nullptr (then
  /// queries are not rewritten). `config.k` must be > 0.
  NclLinker(const comaid::ComAidModel* model, const CandidateGenerator* candidates,
            const QueryRewriter* rewriter, NclConfig config = {});

  std::string name() const override { return "NCL"; }

  Ranking Link(const std::vector<std::string>& query, size_t k) const override;

  /// Full pipeline with timings: returns candidates re-ranked by Phase II.
  /// A one-query LinkBatchDetailed call.
  std::vector<ScoredCandidate> LinkDetailed(const std::vector<std::string>& query,
                                            PhaseTimings* timings = nullptr) const;

  /// \brief Link several queries as one ED workload.
  ///
  /// Runs OR/CR per query, then pools every (query, candidate) pair into a
  /// single batched Phase-II scoring pass: lock-step tiles can span queries,
  /// so a micro-batch of small-k queries still fills whole GEMM tiles. The
  /// per-query rankings are identical to one-query calls (same scores — the
  /// batched scorer is lane-order invariant).
  /// `timings`, when non-null, receives one PhaseTimings per query; the
  /// shared ED pass is attributed proportionally to each query's lane count.
  /// `flow_ids`, when non-null, holds one trace flow-edge id per query (see
  /// obs::RequestFlowId; 0 = none): each query's Phase-I work then runs
  /// under an `ncl.link.query` span that terminates that flow edge, so a
  /// serving request renders as a connected lane from admission down to the
  /// shard's linker in Perfetto. Ignored while tracing is disabled.
  std::vector<std::vector<ScoredCandidate>> LinkBatchDetailed(
      const std::vector<std::vector<std::string>>& queries,
      std::vector<PhaseTimings>* timings = nullptr,
      const uint64_t* flow_ids = nullptr) const;

  // There is deliberately no config mutator (a set_k once lived here): the
  // linker is logically const and shared across threads, so a post-hoc
  // config write would race with in-flight LinkDetailed calls. Build a new
  // linker (they are cheap — all heavy state is borrowed) to change k.
  const NclConfig& config() const { return config_; }

 private:
  const comaid::ComAidModel* model_;
  const CandidateGenerator* candidates_;
  const QueryRewriter* rewriter_;
  NclConfig config_;
};

}  // namespace ncl::linking
