// TF-IDF cosine inverted index — Phase I of the paper's online concept
// linking (§5): "we compute the cosine similarity between each concept and
// query q with the TF-IDF weighting scheme, and then return the top-k
// concepts with the largest similarity as the candidates."
//
// One index, two analyzers, chosen by NgramIndexConfig::ngram_size:
//   * ngram_size = 0, the token analyzer: each token is one term — the
//     paper's Phase I verbatim;
//   * ngram_size = n > 0, the scispacy-style analyzer: each token plus its
//     boundary-padded character n-grams (see CharNgramsPadded), which keeps
//     typos retrievable and, with the pruning knobs below, makes retrieval
//     sub-linear at the paper's 93,830 ICD-10 codes.
// Both share the smoothed idf log((N+1)/(df+1)) + 1, L2-normalised cosine
// scoring and the (score desc, doc id asc) selection order.
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
// Each thread queries through its own dense scratch — an accumulator per
// document (-1 = not admitted), the admitted list that resets it, and a
// query weight per term (0 outside the query) for the rescore — which it
// leaves clean when the query returns. Once that scratch has grown to the
// collection, a query allocates nothing sized by the collection.
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
#include <vector>

#include "text/vocabulary.h"

namespace ncl::text {

/// One ranked retrieval result.
struct ScoredDoc {
  int32_t doc_id = -1;
  double score = 0.0;
};

/// Analyzer and pruning knobs. Zeroing the three pruning knobs makes
/// TopK exhaustive (identical results to TopKExhaustive).
struct NgramIndexConfig {
  /// Character n-gram width (boundary-padded; see CharNgramsPadded) indexed
  /// alongside each whole token; 0 indexes the tokens alone. Tokens are
  /// rarer than grams, so they carry the highest idf and drive the salience
  /// order.
  size_t ngram_size = 3;
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

/// The token analyzer with every pruning knob zeroed: exhaustive TF-IDF
/// cosine over whole tokens, §5's Phase I verbatim. Builds no forward index.
NgramIndexConfig ExhaustiveTokenConfig();

/// \brief Inverted index over token (+ padded char-ngram) terms, TF-IDF
/// cosine scored, with optional top-m pruned retrieval.
class NgramIndex {
  /// Test-only access to the postings and the forward index, for a
  /// reference walk kept beside the tests.
  friend struct NgramIndexTestPeer;

 public:
  explicit NgramIndex(NgramIndexConfig config = {});

  /// Add one document; returns its id (dense, insertion order).
  int32_t AddDocument(const std::vector<std::string>& tokens);

  /// Freeze the collection: compute idf, normalise impacts, impact-order
  /// the postings, record per-term upper bounds, and (when any pruning knob
  /// is active) build the forward index used for exact rescoring.
  void Finalize();

  /// Top-k documents by (approximate) cosine under the pruning knobs,
  /// sorted by descending score with ascending doc id as tie-break. Query
  /// words that share no term with the collection are ignored.
  std::vector<ScoredDoc> TopK(const std::vector<std::string>& query,
                              size_t k) const;

  /// The exhaustive reference: same analyzer and weights, every posting of
  /// every query term walked, full ranking. Pinned against TopK by the
  /// parity tests; the bench reports the latency gap.
  std::vector<ScoredDoc> TopKExhaustive(const std::vector<std::string>& query,
                                        size_t k) const;

  /// The distinct tokens of every indexed document, in first-seen order —
  /// the Ω of §5's query rewriting step, whatever the analyzer.
  const Vocabulary& tokens() const { return tokens_; }

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

  /// One forward-index entry: a term of the document and its impact.
  struct ForwardEntry {
    int32_t term_id;
    float impact;
  };

  /// One analyzed query term with its normalised query-side weight.
  struct QueryTerm {
    int32_t term_id;
    double weight;    // query tf * idf, L2-normalised over the query
    double salience;  // weight * ub(term): max possible score contribution
  };

  /// Index-side analysis: one term id per term occurrence in `tokens`,
  /// sorted ascending, creating new tokens and terms. Each distinct token
  /// is analysed once (token_terms_).
  std::vector<int32_t> AnalyzeDoc(const std::vector<std::string>& tokens);

  /// Query-side analysis: idf-weighted, L2-normalised, salience-sorted.
  std::vector<QueryTerm> AnalyzeQuery(const std::vector<std::string>& query) const;

  std::vector<ScoredDoc> RunTopK(const std::vector<std::string>& query, size_t k,
                                 bool pruned) const;

  NgramIndexConfig config_;
  Vocabulary tokens_;  // Ω: distinct document tokens
  Vocabulary terms_;   // shared token + gram term space
  std::vector<std::vector<Posting>> postings_;  // by term id, impact desc
  std::vector<float> upper_bounds_;             // by term id: postings_[t][0]
  std::vector<double> idf_;                     // by term id
  /// By doc id: the tf-idf weight norm while Finalize normalises, then the
  /// norm of the stored float impacts, which final scores are divided by.
  std::vector<double> doc_norms_;
  /// Forward index for exact rescoring, in CSR layout: document d's terms
  /// are entries [doc_offsets_[d], doc_offsets_[d + 1]) of fwd_, in
  /// ascending term id. Only built when a pruning knob is active — the
  /// zero-knob configuration never truncates accumulation and needs no
  /// second pass.
  std::vector<uint32_t> doc_offsets_;
  std::vector<ForwardEntry> fwd_;
  /// Build-time memo (freed by Finalize): by token id, the token's term ids
  /// in analyzer order.
  std::vector<std::vector<int32_t>> token_terms_;
  size_t num_postings_ = 0;
  bool finalized_ = false;
};

}  // namespace ncl::text
