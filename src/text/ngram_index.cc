#include "text/ngram_index.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>

#include "text/tokenizer.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace ncl::text {

namespace {

/// Enumerates the analyzer's term strings for one token: the token itself
/// and its boundary-padded char n-grams (none when ngram_size is 0).
template <typename Fn>
void ForEachTerm(const NgramIndexConfig& config, const std::string& token,
                 Fn&& fn) {
  fn(std::string_view(token));
  for (const auto& gram : CharNgramsPadded(token, config.ngram_size)) {
    fn(std::string_view(gram));
  }
}

/// Below this many postings Finalize sorts on the calling thread: starting
/// helper threads costs more than the whole pass. A hospital-x scale token
/// index holds a few thousand postings; the 93k ICD-10 ngram index, 5.2M.
constexpr size_t kMinPostingsForParallelFinalize = size_t{1} << 15;

/// k-th largest accumulator score (the maxscore threshold theta).
double KthLargest(const std::unordered_map<int32_t, double>& accums, size_t k,
                  std::vector<double>* scratch) {
  scratch->clear();
  scratch->reserve(accums.size());
  for (const auto& [doc, score] : accums) scratch->push_back(score);
  auto kth = scratch->begin() + static_cast<ptrdiff_t>(k - 1);
  std::nth_element(scratch->begin(), kth, scratch->end(), std::greater<>());
  return *kth;
}

}  // namespace

NgramIndexConfig ExhaustiveTokenConfig() {
  NgramIndexConfig config;
  config.ngram_size = 0;
  config.max_accumulators = 0;
  config.per_term_posting_budget = 0;
  config.early_stop_epsilon = 0.0;
  return config;
}

NgramIndex::NgramIndex(NgramIndexConfig config) : config_(config) {}

int32_t NgramIndex::AddDocument(const std::vector<std::string>& tokens) {
  NCL_CHECK(!finalized_) << "cannot add documents after Finalize()";
  int32_t doc_id = static_cast<int32_t>(doc_norms_.size());
  doc_norms_.push_back(0.0);  // filled in Finalize
  // One posting per distinct term, carrying its tf: the run length of the
  // term's id in the sorted occurrence list.
  const std::vector<int32_t> term_ids = AnalyzeDoc(tokens);
  for (size_t i = 0; i < term_ids.size();) {
    const int32_t term_id = term_ids[i];
    size_t end = i + 1;
    while (end < term_ids.size() && term_ids[end] == term_id) ++end;
    postings_[static_cast<size_t>(term_id)].push_back(
        Posting{doc_id, static_cast<float>(end - i)});
    ++num_postings_;
    i = end;
  }
  return doc_id;
}

std::vector<int32_t> NgramIndex::AnalyzeDoc(
    const std::vector<std::string>& tokens) {
  std::vector<int32_t> term_ids;
  for (const std::string& token : tokens) {
    const auto token_id = static_cast<size_t>(tokens_.Add(token));
    if (token_id == token_terms_.size()) {
      // Ids come from terms_ in the same first-seen order as analysing
      // every occurrence would assign them; a repeat adds no new term.
      std::vector<int32_t>& analyzed = token_terms_.emplace_back();
      ForEachTerm(config_, token, [&](std::string_view term) {
        analyzed.push_back(terms_.Add(term));
      });
      if (terms_.size() > postings_.size()) postings_.resize(terms_.size());
    }
    const std::vector<int32_t>& analyzed = token_terms_[token_id];
    term_ids.insert(term_ids.end(), analyzed.begin(), analyzed.end());
  }
  std::sort(term_ids.begin(), term_ids.end());
  return term_ids;
}

void NgramIndex::Finalize() {
  NCL_CHECK(!finalized_) << "Finalize() called twice";
  // The analyzer memo only serves AddDocument; release it.
  decltype(token_terms_)().swap(token_terms_);
  const double num_docs = static_cast<double>(doc_norms_.size());
  idf_.assign(postings_.size(), 0.0);
  upper_bounds_.assign(postings_.size(), 0.0f);

  // Pass 1: idf (smoothed, always positive) and document norms over raw
  // tf*idf weights. Postings still hold raw tf at this point.
  for (size_t t = 0; t < postings_.size(); ++t) {
    idf_[t] = std::log((num_docs + 1.0) /
                       (static_cast<double>(postings_[t].size()) + 1.0)) +
              1.0;
    for (const Posting& p : postings_[t]) {
      const double weight = static_cast<double>(p.impact) * idf_[t];
      doc_norms_[static_cast<size_t>(p.doc_id)] += weight * weight;
    }
  }
  for (double& norm : doc_norms_) norm = std::sqrt(norm);

  // Pass 2: convert tf -> impact (the normalised cosine contribution),
  // impact-order each list and record its upper bound. Lists are
  // independent and sort under a total order (impact desc, doc id asc), so
  // spreading them over the cores gives the serial result exactly.
  const auto finalize_list = [&](size_t /*worker*/, size_t t) {
    auto& plist = postings_[t];
    for (Posting& p : plist) {
      const double norm = doc_norms_[static_cast<size_t>(p.doc_id)];
      p.impact = norm > 0.0
                     ? static_cast<float>(static_cast<double>(p.impact) *
                                          idf_[t] / norm)
                     : 0.0f;
    }
    std::sort(plist.begin(), plist.end(), [](const Posting& a, const Posting& b) {
      if (a.impact != b.impact) return a.impact > b.impact;
      return a.doc_id < b.doc_id;
    });
    if (!plist.empty()) upper_bounds_[t] = plist.front().impact;
  };
  if (num_postings_ < kMinPostingsForParallelFinalize) {
    for (size_t t = 0; t < postings_.size(); ++t) finalize_list(0, t);
  } else {
    ParallelForOnCores(postings_.size(), finalize_list);
  }

  // Impacts are stored as float, so a document's stored vector has norm 1
  // only up to float rounding. Final scores are divided by that norm, which
  // keeps each one a true cosine against the stored vector to double
  // precision: at most 1, and 1 when the query weighs the document's terms
  // in the document's own proportions.
  std::fill(doc_norms_.begin(), doc_norms_.end(), 0.0);
  for (const auto& plist : postings_) {
    for (const Posting& p : plist) {
      const double impact = p.impact;
      doc_norms_[static_cast<size_t>(p.doc_id)] += impact * impact;
    }
  }
  for (double& norm : doc_norms_) norm = std::sqrt(norm);

  // Forward index for exact rescoring (only needed when pruning can
  // truncate accumulation). Term ids ascend in the outer loop, so each
  // document's pairs come out sorted by term id for the merge-join.
  if (config_.max_accumulators > 0 || config_.per_term_posting_budget > 0 ||
      config_.early_stop_epsilon > 0.0) {
    std::vector<size_t> counts(doc_norms_.size(), 0);
    for (const auto& plist : postings_) {
      for (const Posting& p : plist) ++counts[static_cast<size_t>(p.doc_id)];
    }
    doc_terms_.resize(doc_norms_.size());
    for (size_t d = 0; d < counts.size(); ++d) doc_terms_[d].reserve(counts[d]);
    for (size_t t = 0; t < postings_.size(); ++t) {
      for (const Posting& p : postings_[t]) {
        doc_terms_[static_cast<size_t>(p.doc_id)].emplace_back(
            static_cast<int32_t>(t), p.impact);
      }
    }
  }
  finalized_ = true;
}

std::vector<NgramIndex::QueryTerm> NgramIndex::AnalyzeQuery(
    const std::vector<std::string>& query) const {
  std::unordered_map<int32_t, uint32_t> tf;
  for (const std::string& token : query) {
    ForEachTerm(config_, token, [&](std::string_view term) {
      int32_t id = terms_.Lookup(term);
      if (id != Vocabulary::kUnknown) ++tf[id];
    });
  }

  std::vector<QueryTerm> terms;
  terms.reserve(tf.size());
  double norm = 0.0;
  for (const auto& [id, count] : tf) {
    const double weight = static_cast<double>(count) * idf_[static_cast<size_t>(id)];
    terms.push_back(QueryTerm{id, weight, 0.0});
    norm += weight * weight;
  }
  if (terms.empty() || norm == 0.0) return {};
  norm = std::sqrt(norm);
  for (QueryTerm& qt : terms) {
    qt.weight /= norm;
    qt.salience =
        qt.weight * static_cast<double>(upper_bounds_[static_cast<size_t>(qt.term_id)]);
  }
  // Salience-descending processing order: the most discriminative terms
  // admit candidates first, so top-m pruning keeps the right documents and
  // the maxscore test can retire the long common-gram tail.
  std::sort(terms.begin(), terms.end(), [](const QueryTerm& a, const QueryTerm& b) {
    if (a.salience != b.salience) return a.salience > b.salience;
    return a.term_id < b.term_id;
  });
  return terms;
}

std::vector<ScoredDoc> NgramIndex::RunTopK(const std::vector<std::string>& query,
                                           size_t k, bool pruned) const {
  NCL_CHECK(finalized_) << "TopK() requires Finalize()";
  if (k == 0 || query.empty()) return {};
  const std::vector<QueryTerm> terms = AnalyzeQuery(query);
  if (terms.empty()) return {};

  const size_t max_accums = pruned ? config_.max_accumulators : 0;
  const size_t budget = pruned ? config_.per_term_posting_budget : 0;
  const double epsilon = pruned ? config_.early_stop_epsilon : 0.0;

  // suffix_ub[i]: the most any document could still gain from terms i..end.
  std::vector<double> suffix_ub(terms.size() + 1, 0.0);
  for (size_t i = terms.size(); i-- > 0;) {
    suffix_ub[i] = suffix_ub[i + 1] + terms[i].salience;
  }

  std::unordered_map<int32_t, double> accums;
  accums.reserve(max_accums > 0 ? max_accums : 1024);
  std::vector<double> theta_scratch;
  double theta = 0.0;
  bool have_theta = false;

  for (size_t i = 0; i < terms.size(); ++i) {
    // Maxscore termination: everything the remaining (lowest-salience)
    // terms can add is below epsilon of the k-th best score — further
    // postings cannot meaningfully reorder the top-k.
    if (epsilon > 0.0 && have_theta && suffix_ub[i] < epsilon * theta) break;
    const QueryTerm& qt = terms[i];
    const auto& plist = postings_[static_cast<size_t>(qt.term_id)];
    const size_t limit =
        (budget > 0 && budget < plist.size()) ? budget : plist.size();
    for (size_t p = 0; p < limit; ++p) {
      const Posting& post = plist[p];
      const double delta = qt.weight * static_cast<double>(post.impact);
      auto it = accums.find(post.doc_id);
      if (it != accums.end()) {
        it->second += delta;
      } else if (max_accums == 0 || accums.size() < max_accums) {
        // Maxscore admission: a document first seen at term i can
        // *accumulate* at most delta + suffix_ub[i+1] more. Once a
        // threshold is known, documents that cannot reach it are not
        // admitted (theta only ever underestimates the k-th best final
        // accumulation, and >= keeps potential exact ties), reserving the
        // accumulator table for documents that can still make the top-k.
        if (!have_theta || delta + suffix_ub[i + 1] >= theta) {
          accums.emplace(post.doc_id, delta);
        }
      }
    }
    if (epsilon > 0.0 && accums.size() >= k) {
      theta = KthLargest(accums, k, &theta_scratch);
      have_theta = true;
    }
  }

  // Stage two: exact rescoring of the admitted set. Budget-truncated and
  // epsilon-abandoned lists leave accumulated scores short; a merge-join of
  // each admitted document's forward-index terms against the query restores
  // the full cosine, so admission knobs never mis-rank a kept candidate.
  // The zero-knob configuration accumulates completely and skips this (it
  // also has no forward index), keeping it bit-identical to the exhaustive
  // reference.
  const bool rescore =
      pruned && !doc_terms_.empty() &&
      (max_accums > 0 || budget > 0 || epsilon > 0.0);
  if (rescore) {
    std::vector<std::pair<int32_t, double>> query_weights;
    query_weights.reserve(terms.size());
    for (const QueryTerm& qt : terms) {
      query_weights.emplace_back(qt.term_id, qt.weight);
    }
    std::sort(query_weights.begin(), query_weights.end());
    for (auto& [doc_id, score] : accums) {
      const auto& doc = doc_terms_[static_cast<size_t>(doc_id)];
      double exact = 0.0;
      size_t qi = 0;
      for (const auto& [term_id, impact] : doc) {
        while (qi < query_weights.size() && query_weights[qi].first < term_id) {
          ++qi;
        }
        if (qi == query_weights.size()) break;
        if (query_weights[qi].first == term_id) {
          exact += query_weights[qi].second * static_cast<double>(impact);
        }
      }
      score = exact;
    }
  }

  // Bounded min-heap selection under (score desc, doc_id asc) —
  // deterministic regardless of the accumulator map's iteration order. The
  // heap never outgrows the scored documents, however large k is.
  const auto better = [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  };
  std::vector<ScoredDoc> heap;
  heap.reserve(std::min(k, accums.size()));
  for (const auto& [doc_id, score] : accums) {
    if (score <= 0.0) continue;
    ScoredDoc scored{doc_id, score / doc_norms_[static_cast<size_t>(doc_id)]};
    if (heap.size() < k) {
      heap.push_back(scored);
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (better(scored, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = scored;
      std::push_heap(heap.begin(), heap.end(), better);
    }
  }
  std::sort(heap.begin(), heap.end(), better);
  return heap;
}

std::vector<ScoredDoc> NgramIndex::TopK(const std::vector<std::string>& query,
                                        size_t k) const {
  return RunTopK(query, k, /*pruned=*/true);
}

std::vector<ScoredDoc> NgramIndex::TopKExhaustive(
    const std::vector<std::string>& query, size_t k) const {
  return RunTopK(query, k, /*pruned=*/false);
}

}  // namespace ncl::text
