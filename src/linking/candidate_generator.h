// Phase I of online concept linking (§5): candidate generation.
//
// A TF-IDF weighted inverted index (text::NgramIndex) over the fine-grained
// concepts' canonical descriptions (and, optionally, their KB aliases)
// returns the top-k concepts by cosine similarity with the query. The
// coverage metric of Fig. 5(a) — the fraction of queries whose gold concept
// survives Phase I — is measured against this component.
//
// CandidateGeneratorConfig::use_ngram_index picks the index's analyzer
// (DESIGN.md "Candidate generation at scale"):
//   * off, the token analyzer with pruning off — exhaustive, the paper's
//     Phase I verbatim;
//   * on, `config.ngram`: token + char-ngram terms with top-m pruning and
//     maxscore early termination, for sub-linear retrieval at the
//     93k-concept ICD-10 scale.
// Either way the index's token table is Ω, so the query rewriter sees the
// same vocabulary under both.

#pragma once

#include <vector>

#include "ontology/ontology.h"
#include "text/ngram_index.h"

namespace ncl::linking {

/// Candidate generation knobs.
struct CandidateGeneratorConfig {
  /// Index alias snippets in addition to canonical descriptions.
  bool index_aliases = true;
  /// Retrieve with the pruned char-ngram analyzer (`ngram`) instead of the
  /// exhaustive token analyzer. Off by default: the exhaustive token path
  /// is the paper's literal Phase I.
  bool use_ngram_index = false;
  /// Analyzer and pruning knobs for the ngram path (ignored otherwise).
  text::NgramIndexConfig ngram;
};

/// \brief TF-IDF candidate retriever over fine-grained concepts.
class CandidateGenerator {
 public:
  CandidateGenerator(
      const ontology::Ontology& onto,
      const std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>>&
          aliases,
      CandidateGeneratorConfig config = {});

  /// Top-k distinct fine-grained concepts for the query, best first. When
  /// aliases are indexed, several documents can map to one concept; the
  /// document fetch grows (doubling from k * 4, capped at the collection
  /// size) until k distinct concepts are found or the matching postings
  /// are exhausted, so alias-heavy concepts can never shrink the returned
  /// set below k available ones.
  std::vector<ontology::ConceptId> TopK(const std::vector<std::string>& query,
                                        size_t k) const;

  /// The concept-description vocabulary Ω (§5): words of indexed snippets.
  const text::Vocabulary& vocabulary() const { return index_.tokens(); }

  const CandidateGeneratorConfig& config() const { return config_; }

  /// The index — exposed for the parity tests and bench_candgen.
  const text::NgramIndex& index() const { return index_; }

 private:
  /// Fetch-and-dedup loop over the index's TopK (see TopK docs).
  std::vector<ontology::ConceptId> DedupedTopK(
      const std::vector<std::string>& query, size_t k) const;

  CandidateGeneratorConfig config_;
  text::NgramIndex index_;
  std::vector<ontology::ConceptId> doc_concepts_;  // document id -> concept
};

}  // namespace ncl::linking
