#include "linking/ncl_linker.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace ncl::linking {

namespace {

/// Registry handles for `ncl.link.*`: one histogram per Fig. 11 phase,
/// recorded from the same stopwatch readings that fill PhaseTimings.
struct LinkMetrics {
  obs::Counter* queries;
  obs::Counter* candidates_scored;
  obs::Histogram* rewrite_us;
  obs::Histogram* retrieve_us;
  obs::Histogram* score_us;
  obs::Histogram* rank_us;
  obs::Histogram* total_us;
};

const LinkMetrics& GetLinkMetrics() {
  static const LinkMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return LinkMetrics{registry.GetCounter("ncl.link.queries"),
                       registry.GetCounter("ncl.link.candidates_scored"),
                       registry.GetHistogram("ncl.link.rewrite_us"),
                       registry.GetHistogram("ncl.link.retrieve_us"),
                       registry.GetHistogram("ncl.link.score_us"),
                       registry.GetHistogram("ncl.link.rank_us"),
                       registry.GetHistogram("ncl.link.total_us")};
  }();
  return metrics;
}

/// Phase-II decode target for one candidate: the query ids, minus words the
/// candidate's canonical description shares with the query (§5). Returns
/// `&query_ids` when removal is off, otherwise fills and returns `storage`.
/// (Description words are always in-vocabulary, so filtering on ids is
/// equivalent to filtering on strings: an out-of-vocabulary query word maps
/// to <unk>, which no description contains, and is therefore kept.)
const std::vector<text::WordId>* BuildTarget(
    const comaid::ComAidModel& model, const NclConfig& config,
    ontology::ConceptId id, const std::vector<text::WordId>& query_ids,
    std::vector<text::WordId>* storage) {
  if (!config.remove_shared_words) return &query_ids;
  // A description is a few words, so a linear scan beats building a set.
  const auto& description = model.ConceptWords(id);
  storage->clear();
  storage->reserve(query_ids.size());
  for (text::WordId word : query_ids) {
    if (std::find(description.begin(), description.end(), word) ==
        description.end()) {
      storage->push_back(word);
    }
  }
  // An empty residue (every query word appears in the description) is the
  // strongest possible lexical evidence; the model scores it as
  // p(<eos> | c), one factor, which keeps the removal heuristic monotone:
  // more shared words can only help a candidate.
  return storage;
}

/// Post-scoring per-candidate pass: the optional MAP concept prior (Eq. 11).
ScoredCandidate Finalize(const NclConfig& config,
                         const comaid::BatchScoreLane& lane) {
  double log_prob = lane.log_prob;
  if (!config.concept_prior.empty()) {
    // MAP estimation (Eq. 11): p(c|q) ∝ p(q|c) p(c).
    auto it = config.concept_prior.find(lane.concept_id);
    double prior = it != config.concept_prior.end() ? it->second
                                                    : config.default_prior;
    log_prob += std::log(std::max(prior, 1e-300));
  }
  return ScoredCandidate{lane.concept_id, log_prob, -log_prob};
}

void SortRanking(std::vector<ScoredCandidate>& scored) {
  std::sort(scored.begin(), scored.end(),
            [](const ScoredCandidate& a, const ScoredCandidate& b) {
              if (a.log_prob != b.log_prob) return a.log_prob > b.log_prob;
              return a.concept_id < b.concept_id;
            });
}

void PublishTimings(const PhaseTimings& timings, size_t candidates) {
  const LinkMetrics& metrics = GetLinkMetrics();
  metrics.queries->Increment();
  metrics.candidates_scored->Increment(candidates);
  metrics.rewrite_us->RecordMicros(timings.rewrite_us);
  metrics.retrieve_us->RecordMicros(timings.retrieve_us);
  metrics.score_us->RecordMicros(timings.score_us);
  metrics.rank_us->RecordMicros(timings.rank_us);
  metrics.total_us->RecordMicros(timings.total_us());
}

}  // namespace

NclLinker::NclLinker(const comaid::ComAidModel* model,
                     const CandidateGenerator* candidates,
                     const QueryRewriter* rewriter, NclConfig config)
    : model_(model), candidates_(candidates), rewriter_(rewriter), config_(config) {
  NCL_CHECK(model_ != nullptr);
  NCL_CHECK(candidates_ != nullptr);
  NCL_CHECK(config_.k > 0) << "NclConfig::k must be positive";
}

std::vector<ScoredCandidate> NclLinker::LinkDetailed(
    const std::vector<std::string>& query, PhaseTimings* timings) const {
  std::vector<PhaseTimings> batch_timings;
  std::vector<std::vector<ScoredCandidate>> ranked = LinkBatchDetailed(
      {query}, timings != nullptr ? &batch_timings : nullptr);
  if (timings != nullptr) *timings = batch_timings[0];
  return std::move(ranked[0]);
}

std::vector<std::vector<ScoredCandidate>> NclLinker::LinkBatchDetailed(
    const std::vector<std::vector<std::string>>& queries,
    std::vector<PhaseTimings>* timings, const uint64_t* flow_ids) const {
  NCL_CHECK(config_.k > 0) << "NclConfig::k must be positive";
  NCL_TRACE_SPAN("ncl.link_batch");
  const size_t num_queries = queries.size();
  std::vector<std::vector<ScoredCandidate>> results(num_queries);
  std::vector<PhaseTimings> local(num_queries);
  if (num_queries == 0) {
    if (timings != nullptr) timings->clear();
    return results;
  }

  // --- OR + CR per query, pooling every (query, candidate) pair. ---
  // Lane targets point into query_ids/filtered, so both are sized up front
  // and never reallocated afterwards.
  Stopwatch watch;
  std::vector<std::vector<text::WordId>> query_ids(num_queries);
  std::vector<std::vector<ontology::ConceptId>> candidates(num_queries);
  std::vector<size_t> lane_begin(num_queries + 1, 0);
  for (size_t q = 0; q < num_queries; ++q) {
    // Terminates the request's shard-level flow edge (when the serving layer
    // passed one), so the request lane connects down into the linker.
    NCL_TRACE_SPAN_FLOW("ncl.link.query", 0,
                        flow_ids != nullptr ? flow_ids[q] : 0);
    watch.Reset();
    std::vector<std::string> rewritten =
        rewriter_ != nullptr ? rewriter_->Rewrite(queries[q]) : queries[q];
    local[q].rewrite_us = watch.ElapsedMicros();

    watch.Reset();
    candidates[q] = candidates_->TopK(rewritten, config_.k);
    local[q].retrieve_us = watch.ElapsedMicros();

    query_ids[q] = model_->MapTokens(rewritten);
    lane_begin[q + 1] = lane_begin[q] + candidates[q].size();
  }

  const size_t total_lanes = lane_begin[num_queries];
  std::vector<std::vector<text::WordId>> filtered(total_lanes);
  std::vector<comaid::BatchScoreLane> lanes(total_lanes);
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t i = 0; i < candidates[q].size(); ++i) {
      const size_t lane = lane_begin[q] + i;
      lanes[lane].concept_id = candidates[q][i];
      lanes[lane].target = BuildTarget(*model_, config_, candidates[q][i],
                                       query_ids[q], &filtered[lane]);
    }
  }

  // --- ED: one pooled scoring pass; lock-step tiles span queries. The
  // shared wall time is attributed to each query by its lane share. ---
  watch.Reset();
  {
    NCL_TRACE_SPAN("ncl.link.score");
    model_->ScoreLogProbFastBatch(lanes.data(), lanes.size());
  }
  const double score_us = watch.ElapsedMicros();
  for (size_t q = 0; q < num_queries; ++q) {
    const size_t q_lanes = lane_begin[q + 1] - lane_begin[q];
    local[q].score_us =
        total_lanes == 0
            ? 0.0
            : score_us * static_cast<double>(q_lanes) /
                  static_cast<double>(total_lanes);
  }

  // --- RT per query. ---
  for (size_t q = 0; q < num_queries; ++q) {
    watch.Reset();
    auto& scored = results[q];
    scored.resize(lane_begin[q + 1] - lane_begin[q]);
    for (size_t i = 0; i < scored.size(); ++i) {
      scored[i] = Finalize(config_, lanes[lane_begin[q] + i]);
    }
    SortRanking(scored);
    local[q].rank_us = watch.ElapsedMicros();
    PublishTimings(local[q], scored.size());
  }

  if (timings != nullptr) *timings = std::move(local);
  return results;
}

Ranking NclLinker::Link(const std::vector<std::string>& query, size_t k) const {
  std::vector<ScoredCandidate> scored = LinkDetailed(query);
  Ranking ranking;
  ranking.reserve(std::min(k, scored.size()));
  for (const ScoredCandidate& candidate : scored) {
    if (ranking.size() == k) break;
    ranking.push_back(RankedConcept{candidate.concept_id, candidate.log_prob});
  }
  return ranking;
}

}  // namespace ncl::linking
