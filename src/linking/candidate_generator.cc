#include "linking/candidate_generator.h"

#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace ncl::linking {

namespace {

/// Registry handles for `ncl.candidates.*`, resolved once.
struct CandidateMetrics {
  obs::Counter* queries;
  obs::Counter* returned;
  obs::Histogram* topk_us;
  obs::Counter* refetches;
};

const CandidateMetrics& GetCandidateMetrics() {
  static const CandidateMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return CandidateMetrics{registry.GetCounter("ncl.candidates.queries"),
                            registry.GetCounter("ncl.candidates.returned"),
                            registry.GetHistogram("ncl.candidates.topk_us"),
                            registry.GetCounter("ncl.candidates.refetches")};
  }();
  return metrics;
}

}  // namespace

CandidateGenerator::CandidateGenerator(
    const ontology::Ontology& onto,
    const std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>>&
        aliases,
    CandidateGeneratorConfig config)
    : config_(config),
      index_(config_.use_ngram_index ? config_.ngram
                                     : text::ExhaustiveTokenConfig()) {
  auto add_document = [&](ontology::ConceptId id,
                          const std::vector<std::string>& tokens) {
    index_.AddDocument(tokens);
    doc_concepts_.push_back(id);
  };
  for (ontology::ConceptId id : onto.FineGrainedConcepts()) {
    add_document(id, onto.Get(id).description);
  }
  if (config_.index_aliases) {
    for (const auto& [concept_id, tokens] : aliases) {
      if (onto.IsFineGrained(concept_id) && !tokens.empty()) {
        add_document(concept_id, tokens);
      }
    }
  }
  index_.Finalize();
}

std::vector<ontology::ConceptId> CandidateGenerator::DedupedTopK(
    const std::vector<std::string>& query, size_t k) const {
  // Several documents (canonical description + aliases) can map to one
  // concept, so a fixed over-fetch can silently under-return: grow the
  // document budget until k distinct concepts are found or the index runs
  // out of matches (a fetch shorter than its budget, or one that covered the
  // whole collection). The budget saturates at the collection size, so no
  // k, however large, overflows it.
  const size_t num_docs = index_.num_documents();
  size_t budget = k > num_docs / 4 ? num_docs : k * 4;
  for (;;) {
    std::vector<text::ScoredDoc> docs = index_.TopK(query, budget);
    std::vector<ontology::ConceptId> concepts;
    std::unordered_set<ontology::ConceptId> seen;
    for (const text::ScoredDoc& doc : docs) {
      ontology::ConceptId id = doc_concepts_[static_cast<size_t>(doc.doc_id)];
      if (seen.insert(id).second) {
        concepts.push_back(id);
        if (concepts.size() == k) break;
      }
    }
    if (concepts.size() == k || docs.size() < budget || budget == num_docs) {
      return concepts;
    }
    GetCandidateMetrics().refetches->Increment();
    budget = budget > num_docs / 2 ? num_docs : budget * 2;
  }
}

std::vector<ontology::ConceptId> CandidateGenerator::TopK(
    const std::vector<std::string>& query, size_t k) const {
  NCL_TRACE_SPAN("ncl.candidates.topk");
  Stopwatch watch;
  std::vector<ontology::ConceptId> concepts = DedupedTopK(query, k);
  const CandidateMetrics& metrics = GetCandidateMetrics();
  metrics.queries->Increment();
  metrics.returned->Increment(concepts.size());
  metrics.topk_us->RecordMicros(watch.ElapsedMicros());
  return concepts;
}

}  // namespace ncl::linking
