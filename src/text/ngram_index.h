// Char-ngram TF-IDF inverted index with top-m pruned retrieval.
//
// The exhaustive TfIdfIndex accumulates a score for every document that
// shares a term with the query and then ranks them all — fine at thousands
// of synthetic concepts, a corpus scan at the paper's 93,830 ICD-10 codes.
// NgramIndex is the sub-linear replacement (ROADMAP "paper-scale
// ontologies"): a scispacy-style analyzer (token unigrams + boundary-padded
// character 3-grams, see CharNgramsPadded) feeding an impact-ordered
// inverted index scored with maxscore/WAND-flavoured early termination.
//
// Index layout (built in Finalize):
//   * one posting list per term, sorted by descending *impact* — the term's
//     normalised contribution tf*idf / ||d|| to the cosine score — with
//     doc_id as tie-break;
//   * a per-term upper bound ub(t) = first (largest) impact in the list.
//
// Retrieval is two-stage. Stage one *admits* candidates: a term-at-a-time
// walk in descending salience q(t)*ub(t) (query weight times upper bound),
// with three pruning knobs:
//   * max_accumulators (top-m pruning): once m candidate documents have
//     been admitted, no new documents are created — later postings only
//     update documents that already look promising;
//   * per_term_posting_budget: at most B postings of any list are walked.
//     Lists are impact-ordered, so the walked prefix is exactly the B
//     highest-contribution documents of that term;
//   * early_stop_epsilon: terms are abandoned wholesale once the summed
//     upper bounds of every remaining term fall below epsilon times the
//     current k-th best accumulated score — the maxscore termination test.
// Stage two *rescores* every admitted document exactly against a forward
// index (document -> term impacts), so truncated posting walks never
// under-count a candidate's score — pruning can only cost recall by failing
// to admit the right document, not by mis-ranking an admitted one. This is
// what lets the admission knobs stay aggressive at paper scale.
//
// With all three knobs zeroed retrieval is exhaustive over the same
// analyzer — stage one admits every matching document with its full
// accumulated score and stage two is skipped, making TopK bit-identical to
// TopKExhaustive (the always-exhaustive reference used by the parity
// tests). The pruned result is approximate only in which documents get
// admitted — the recall@k-vs-latency tradeoff bench_candgen sweeps.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/tfidf_index.h"
#include "text/vocabulary.h"

namespace ncl::text {

/// Analyzer and pruning knobs. Zeroing the three pruning knobs makes
/// TopK exhaustive (identical candidate sets to TopKExhaustive).
struct NgramIndexConfig {
  /// Character n-gram width (boundary-padded; see CharNgramsPadded).
  size_t ngram_size = 3;
  /// Index whole tokens as terms alongside the grams. Tokens are rarer than
  /// grams, so they carry the highest idf and drive the salience order.
  bool index_tokens = true;
  /// Top-m pruning: maximum candidate documents admitted per query
  /// (0 = unbounded). Admission is additionally maxscore-gated: once a
  /// threshold score is known, documents whose accumulation cannot reach it
  /// are not admitted, so the table holds viable candidates rather than the
  /// first m documents encountered.
  size_t max_accumulators = 1536;
  /// Maximum postings walked per query term during admission
  /// (0 = unbounded). Impact ordering makes the walked prefix the term's
  /// best documents; exact rescoring means truncation only limits who gets
  /// admitted, never an admitted document's score.
  size_t per_term_posting_budget = 512;
  /// Stop the admission walk once the remaining terms' summed upper bounds
  /// drop below epsilon * (current k-th best score) (0 = never stop early).
  /// Admitted documents are exactly rescored afterwards, so this only
  /// abandons tail-term *admissions*, which is why it can sit well above
  /// the usual rank-safe setting.
  double early_stop_epsilon = 0.4;
};

/// \brief Inverted index over token + padded char-ngram terms, TF-IDF
/// cosine scored, with optional top-m pruned retrieval.
class NgramIndex {
 public:
  explicit NgramIndex(NgramIndexConfig config = {});

  /// Add one document; returns its id (dense, insertion order).
  int32_t AddDocument(const std::vector<std::string>& tokens);

  /// Freeze the collection: compute idf, normalise impacts, impact-order
  /// the postings, record per-term upper bounds, and (when any pruning knob
  /// is active) build the forward index used for exact rescoring.
  void Finalize();

  /// Top-k documents by (approximate) cosine under the pruning knobs,
  /// sorted by descending score with ascending doc id as tie-break.
  std::vector<ScoredDoc> TopK(const std::vector<std::string>& query,
                              size_t k) const;

  /// The exhaustive reference: same analyzer and weights, every posting of
  /// every query term walked, full ranking. Pinned against TopK by the
  /// parity tests; the bench reports the latency gap.
  std::vector<ScoredDoc> TopKExhaustive(const std::vector<std::string>& query,
                                        size_t k) const;

  const NgramIndexConfig& config() const { return config_; }
  size_t num_documents() const { return doc_norms_.size(); }
  /// Distinct terms (tokens + grams) across the collection.
  size_t num_terms() const { return postings_.size(); }
  /// Total posting entries across all lists.
  size_t num_postings() const { return num_postings_; }
  bool finalized() const { return finalized_; }

 private:
  /// One posting: a document and the term's normalised score contribution.
  struct Posting {
    int32_t doc_id;
    float impact;  // tf * idf / ||d||, i.e. the cosine contribution
  };

  /// One analyzed query term with its normalised query-side weight.
  struct QueryTerm {
    int32_t term_id;
    double weight;    // query tf * idf, L2-normalised over the query
    double salience;  // weight * ub(term): max possible score contribution
  };

  /// Index-side analysis: one term id per term occurrence in `tokens`,
  /// sorted ascending, creating new terms. Each distinct token is analysed
  /// once (token_terms_).
  std::vector<int32_t> AnalyzeDoc(const std::vector<std::string>& tokens);

  /// Query-side analysis: idf-weighted, L2-normalised, salience-sorted.
  std::vector<QueryTerm> AnalyzeQuery(const std::vector<std::string>& query) const;

  std::vector<ScoredDoc> RunTopK(const std::vector<std::string>& query, size_t k,
                                 bool pruned) const;

  NgramIndexConfig config_;
  Vocabulary terms_;  // shared token + gram term space ('#'-padded grams
                      // cannot collide with tokens)
  std::vector<std::vector<Posting>> postings_;  // by term id, impact desc
  std::vector<float> upper_bounds_;             // by term id: postings_[t][0]
  std::vector<double> idf_;                     // by term id
  std::vector<double> doc_norms_;               // by doc id (pre-normalisation)
  /// Forward index for exact rescoring: per document, its (term id, impact)
  /// pairs in ascending term id (merge-joined against the sorted query).
  /// Only built when a pruning knob is active — the zero-knob configuration
  /// never truncates accumulation and needs no second pass.
  std::vector<std::vector<std::pair<int32_t, float>>> doc_terms_;
  /// Build-time memo (freed by Finalize): each distinct token's term ids in
  /// analyzer order.
  std::unordered_map<std::string, std::vector<int32_t>, StringHash,
                     std::equal_to<>>
      token_terms_;
  size_t num_postings_ = 0;
  bool finalized_ = false;
};

}  // namespace ncl::text
