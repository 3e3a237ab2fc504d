#include "text/ngram_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
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
  ForEachCharNgramPadded(token, config.ngram_size, fn);
}

/// Below this many postings Finalize sorts on the calling thread: starting
/// helper threads costs more than the whole pass. A hospital-x scale token
/// index holds a few thousand postings; the 93k ICD-10 ngram index, 5.2M.
constexpr size_t kMinPostingsForParallelFinalize = size_t{1} << 15;

/// Per-thread query scratch. It grows to the largest collection the thread
/// has queried and is clean between queries: every accumulator -1 (not
/// admitted; scores are never negative), every query weight 0, the admitted
/// list empty.
struct QueryScratch {
  std::vector<double> accums;         // by doc id
  std::vector<int32_t> admitted;      // doc ids with accums >= 0
  /// Slots for the admitted doc ids at or above theta, plus one: once theta
  /// exists, the walk writes each posting's doc id into the next slot and
  /// keeps it only when the posting lifts the document across theta.
  std::vector<int32_t> above;
  std::vector<double> theta_pool;     // their accumulators, for nth_element
  std::vector<double> query_weights;  // by term id
};

/// Documents rescored ahead of the one being summed whose forward entries
/// are prefetched.
constexpr size_t kRescorePrefetchDistance = 8;

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
  // truncate accumulation), in CSR layout. Term ids ascend in the outer
  // loop, so each document's entries come out sorted by term id.
  if (config_.max_accumulators > 0 || config_.per_term_posting_budget > 0 ||
      config_.early_stop_epsilon > 0.0) {
    NCL_CHECK(num_postings_ <= std::numeric_limits<uint32_t>::max())
        << num_postings_ << " postings overflow the forward index offsets";
    doc_offsets_.assign(doc_norms_.size() + 1, 0);
    for (const auto& plist : postings_) {
      for (const Posting& p : plist) {
        ++doc_offsets_[static_cast<size_t>(p.doc_id) + 1];
      }
    }
    for (size_t d = 1; d < doc_offsets_.size(); ++d) {
      doc_offsets_[d] += doc_offsets_[d - 1];
    }
    fwd_.resize(num_postings_);
    std::vector<uint32_t> cursor(doc_offsets_.begin(), doc_offsets_.end() - 1);
    for (size_t t = 0; t < postings_.size(); ++t) {
      for (const Posting& p : postings_[t]) {
        const uint32_t at = cursor[static_cast<size_t>(p.doc_id)]++;
        fwd_[at] = ForwardEntry{static_cast<int32_t>(t), p.impact};
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
  // Stage two (below) runs whenever a knob can truncate accumulation; the
  // zero-knob configuration has no forward index and needs none.
  const bool rescore =
      pruned && !doc_offsets_.empty() &&
      (max_accums > 0 || budget > 0 || epsilon > 0.0);

  thread_local QueryScratch scratch;
  if (scratch.accums.size() < doc_norms_.size()) {
    scratch.accums.resize(doc_norms_.size(), -1.0);
  }
  if (rescore && scratch.query_weights.size() < postings_.size()) {
    scratch.query_weights.resize(postings_.size(), 0.0);
  }
  // The above list holds at most every admitted document (only when theta
  // is taken), plus the slot the walk writes past its end.
  const size_t max_admitted = max_accums > 0
                                  ? std::min(max_accums, doc_norms_.size())
                                  : doc_norms_.size();
  const size_t above_slots = (epsilon > 0.0 ? max_admitted : 0) + 1;
  if (scratch.above.size() < above_slots) scratch.above.resize(above_slots);
  // Leaves the scratch clean however this call exits.
  struct ScratchReset {
    QueryScratch& scratch;
    const std::vector<QueryTerm>* weighted = nullptr;
    ~ScratchReset() {
      for (int32_t doc : scratch.admitted) {
        scratch.accums[static_cast<size_t>(doc)] = -1.0;
      }
      scratch.admitted.clear();
      if (weighted == nullptr) return;
      for (const QueryTerm& qt : *weighted) {
        scratch.query_weights[static_cast<size_t>(qt.term_id)] = 0.0;
      }
    }
  } reset{scratch};
  double* const accums = scratch.accums.data();
  std::vector<int32_t>& admitted = scratch.admitted;
  int32_t* const above = scratch.above.data();
  size_t num_above = 0;

  // suffix_ub[i]: the most any document could still gain from terms i..end.
  std::vector<double> suffix_ub(terms.size() + 1, 0.0);
  for (size_t i = terms.size(); i-- > 0;) {
    suffix_ub[i] = suffix_ub[i + 1] + terms[i].salience;
  }

  double theta = 0.0;
  bool have_theta = false;

  for (size_t i = 0; i < terms.size(); ++i) {
    // Maxscore termination: everything the remaining (lowest-salience)
    // terms can add is below epsilon of the k-th best score — further
    // postings cannot meaningfully reorder the top-k.
    if (epsilon > 0.0 && have_theta && suffix_ub[i] < epsilon * theta) break;
    const QueryTerm& qt = terms[i];
    const double weight = qt.weight;
    const double reach = suffix_ub[i + 1];
    const auto& plist = postings_[static_cast<size_t>(qt.term_id)];
    const size_t limit =
        (budget > 0 && budget < plist.size()) ? budget : plist.size();
    // A posting that lifts a document from below theta to at or above it
    // appends the document to the above list. Before the first theta none
    // can, so the walk skips the list (the exhaustive walk never has one).
    const bool track_above = have_theta;

    // Admission phase. It ends at the first new document it may not admit:
    // the table is full, or the document could not reach theta (a document
    // first seen at term i can *accumulate* at most delta + suffix_ub[i+1]
    // more; theta only ever underestimates the k-th best final
    // accumulation, and >= keeps potential exact ties). Theta is fixed
    // within a term, the table only fills, and impacts descend along the
    // list, so no later posting of this term could admit a document either.
    size_t p = 0;
    for (; p < limit; ++p) {
      const Posting& post = plist[p];
      const double delta = weight * static_cast<double>(post.impact);
      const auto d = static_cast<size_t>(post.doc_id);
      const double before = accums[d];
      double after = before + delta;
      if (before < 0.0) {
        if (max_accums > 0 && admitted.size() >= max_accums) break;
        if (have_theta && delta + reach < theta) break;
        after = delta;
        admitted.push_back(post.doc_id);
      }
      accums[d] = after;
      if (track_above) {
        above[num_above] = post.doc_id;
        num_above += static_cast<size_t>((before < theta) & (after >= theta));
      }
    }
    // Update-only phase, with no branch on the data: an admitted document
    // gains delta, and a -1 (not admitted) gains +0.0 and stays -1.
    for (; p < limit; ++p) {
      const Posting& post = plist[p];
      const double delta = weight * static_cast<double>(post.impact);
      const auto d = static_cast<size_t>(post.doc_id);
      const double before = accums[d];
      const double after = before + (before >= 0.0 ? delta : 0.0);
      accums[d] = after;
      if (track_above) {
        above[num_above] = post.doc_id;
        num_above += static_cast<size_t>((before < theta) & (after >= theta));
      }
    }

    if (epsilon > 0.0 && admitted.size() >= k) {
      // theta = the k-th largest accumulator. Accumulators only grow and
      // admitted documents stay, so the k that reached the previous theta
      // still do, and the new k-th largest is among the documents at or
      // above it: the above list (every admitted document the first time).
      const int32_t* from = have_theta ? above : admitted.data();
      const size_t count = have_theta ? num_above : admitted.size();
      std::vector<double>& pool = scratch.theta_pool;
      pool.resize(count);
      for (size_t j = 0; j < count; ++j) {
        pool[j] = accums[static_cast<size_t>(from[j])];
      }
      auto kth = pool.begin() + static_cast<ptrdiff_t>(k - 1);
      std::nth_element(pool.begin(), kth, pool.end(), std::greater<>());
      theta = *kth;
      have_theta = true;
      // Keep the documents at or above the new theta (in place when `from`
      // is the above list: a slot is written only after it is read).
      size_t kept = 0;
      for (size_t j = 0; j < count; ++j) {
        const int32_t doc = from[j];
        above[kept] = doc;
        kept += static_cast<size_t>(accums[static_cast<size_t>(doc)] >= theta);
      }
      num_above = kept;
    }
  }

  // Stage two: exact rescoring of the admitted set. Budget-truncated and
  // epsilon-abandoned lists leave accumulated scores short; walking each
  // admitted document's forward entries against a term -> query-weight
  // table restores the full cosine, so admission knobs never mis-rank a
  // kept candidate. Terms outside the query weigh 0 and add +0.0 to a
  // non-negative sum, so each score has the bits of a merge-join over the
  // shared terms in ascending term id. Four documents are summed at once,
  // each in its own order, so their dependent add chains overlap.
  if (rescore) {
    reset.weighted = &terms;
    double* const weights = scratch.query_weights.data();
    for (const QueryTerm& qt : terms) {
      weights[static_cast<size_t>(qt.term_id)] = qt.weight;
    }
    const ForwardEntry* const fwd = fwd_.data();
    const uint32_t* const offsets = doc_offsets_.data();
    const auto add_entries = [weights](const ForwardEntry* e,
                                       const ForwardEntry* end, double sum) {
      for (; e < end; ++e) {
        sum += weights[static_cast<size_t>(e->term_id)] *
               static_cast<double>(e->impact);
      }
      return sum;
    };
    const size_t n = admitted.size();
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      for (size_t ahead = j + kRescorePrefetchDistance;
           ahead < std::min(j + kRescorePrefetchDistance + 4, n); ++ahead) {
        __builtin_prefetch(fwd + offsets[static_cast<size_t>(admitted[ahead])]);
      }
      const auto d0 = static_cast<size_t>(admitted[j]);
      const auto d1 = static_cast<size_t>(admitted[j + 1]);
      const auto d2 = static_cast<size_t>(admitted[j + 2]);
      const auto d3 = static_cast<size_t>(admitted[j + 3]);
      const ForwardEntry* e0 = fwd + offsets[d0];
      const ForwardEntry* e1 = fwd + offsets[d1];
      const ForwardEntry* e2 = fwd + offsets[d2];
      const ForwardEntry* e3 = fwd + offsets[d3];
      const size_t shared = std::min(
          std::min(offsets[d0 + 1] - offsets[d0], offsets[d1 + 1] - offsets[d1]),
          std::min(offsets[d2 + 1] - offsets[d2], offsets[d3 + 1] - offsets[d3]));
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (size_t t = 0; t < shared; ++t) {
        s0 += weights[static_cast<size_t>(e0[t].term_id)] *
              static_cast<double>(e0[t].impact);
        s1 += weights[static_cast<size_t>(e1[t].term_id)] *
              static_cast<double>(e1[t].impact);
        s2 += weights[static_cast<size_t>(e2[t].term_id)] *
              static_cast<double>(e2[t].impact);
        s3 += weights[static_cast<size_t>(e3[t].term_id)] *
              static_cast<double>(e3[t].impact);
      }
      accums[d0] = add_entries(e0 + shared, fwd + offsets[d0 + 1], s0);
      accums[d1] = add_entries(e1 + shared, fwd + offsets[d1 + 1], s1);
      accums[d2] = add_entries(e2 + shared, fwd + offsets[d2 + 1], s2);
      accums[d3] = add_entries(e3 + shared, fwd + offsets[d3 + 1], s3);
    }
    for (; j < n; ++j) {
      const auto d = static_cast<size_t>(admitted[j]);
      accums[d] = add_entries(fwd + offsets[d], fwd + offsets[d + 1], 0.0);
    }
  }

  // Bounded min-heap selection under (score desc, doc_id asc) — a total
  // order, so the admission order does not matter. The heap never outgrows
  // the scored documents, however large k is.
  const auto better = [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  };
  std::vector<ScoredDoc> heap;
  heap.reserve(std::min(k, admitted.size()));
  for (int32_t doc_id : admitted) {
    const double score = accums[static_cast<size_t>(doc_id)];
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
