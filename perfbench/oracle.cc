#include "oracle.h"

#include <cmath>
#include <cstring>
#include <unordered_set>

namespace perfbench {

using ncl::linking::ScoredCandidate;

std::string CheckShape(const std::vector<ScoredCandidate>& ranking, size_t k) {
  if (ranking.size() > k) {
    return "ranking has " + std::to_string(ranking.size()) + " > k=" +
           std::to_string(k) + " candidates";
  }
  std::unordered_set<ncl::ontology::ConceptId> seen;
  for (size_t i = 0; i < ranking.size(); ++i) {
    const ScoredCandidate& c = ranking[i];
    if (c.concept_id == ncl::ontology::kInvalidConcept) {
      return "invalid concept at rank " + std::to_string(i);
    }
    if (!seen.insert(c.concept_id).second) {
      return "duplicate concept " + std::to_string(c.concept_id);
    }
    if (!std::isfinite(c.log_prob)) {
      return "non-finite log-prob at rank " + std::to_string(i);
    }
    if (i > 0 && c.log_prob > ranking[i - 1].log_prob) {
      return "not sorted by log-prob at rank " + std::to_string(i);
    }
  }
  return {};
}

std::string CompareExact(const std::vector<ScoredCandidate>& served,
                         const std::vector<ScoredCandidate>& reference) {
  if (served.size() != reference.size()) {
    return "served " + std::to_string(served.size()) + " candidates, reference " +
           std::to_string(reference.size());
  }
  for (size_t i = 0; i < served.size(); ++i) {
    if (served[i].concept_id != reference[i].concept_id) {
      return "concept differs at rank " + std::to_string(i);
    }
    if (std::memcmp(&served[i].log_prob, &reference[i].log_prob,
                    sizeof(double)) != 0) {
      return "log-prob differs at rank " + std::to_string(i);
    }
  }
  return {};
}

}  // namespace perfbench
