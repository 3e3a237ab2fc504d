#include "linking/query_rewriter.h"

#include <algorithm>

#include "text/edit_distance.h"
#include "util/string_util.h"

namespace ncl::linking {

QueryRewriter::QueryRewriter(const text::Vocabulary& retrieval_vocab,
                             const pretrain::WordEmbeddings& embeddings,
                             QueryRewriterConfig config)
    : retrieval_vocab_(retrieval_vocab), embeddings_(embeddings), config_(config) {
  const text::Vocabulary& emb_vocab = embeddings_.vocabulary();
  omega_ids_.reserve(retrieval_vocab_.size());
  for (const std::string& word : retrieval_vocab_.words()) {
    const text::WordId id = emb_vocab.Lookup(word);
    if (id != text::Vocabulary::kUnknown) omega_ids_.push_back(id);
  }
  std::sort(omega_ids_.begin(), omega_ids_.end());
}

text::WordId QueryRewriter::ClosestBySpelling(std::string_view word) const {
  const text::Vocabulary& emb_vocab = embeddings_.vocabulary();
  const std::vector<std::string>& words = emb_vocab.words();
  const std::vector<uint64_t>& counts = emb_vocab.counts();
  size_t best_distance = config_.max_edit_distance + 1;
  text::WordId best_id = text::Vocabulary::kUnknown;
  for (size_t i = 0; i < words.size(); ++i) {
    // A candidate farther than `reach` loses on distance, so its exact
    // distance is never needed: skip it on length alone, or let the bounded
    // scan give up on it early.
    const size_t reach = std::min(best_distance, config_.max_edit_distance);
    const size_t length = words[i].size();
    const size_t length_gap =
        length > word.size() ? length - word.size() : word.size() - length;
    if (length_gap > reach) continue;
    const size_t distance = text::BoundedLevenshtein(word, words[i], reach);
    if (distance < best_distance ||
        (distance == best_distance && best_id != text::Vocabulary::kUnknown &&
         counts[i] > counts[static_cast<size_t>(best_id)])) {
      best_distance = distance;
      best_id = static_cast<text::WordId>(i);
    }
  }
  return best_id;
}

text::WordId QueryRewriter::NearestInOmega(text::WordId id) const {
  const size_t n = omega_ids_.size();
  if (n == 0) return text::Vocabulary::kUnknown;
  const size_t dim = embeddings_.dim();
  const float* query = embeddings_.VectorOf(id);
  const double query_norm = embeddings_.NormOf(id);
  // WordEmbeddings::Cosine's arithmetic: one double dot product summed in
  // dimension order, over the product of the two norms.
  const auto cosine = [&](double dot, text::WordId other) {
    const double denom = query_norm * embeddings_.NormOf(other);
    return denom > 0.0 ? dot / denom : 0.0;
  };
  size_t best = 0;
  double best_cosine = 0.0;
  const auto consider = [&](size_t i, double value) {
    if (i == 0 || value > best_cosine) {
      best = i;
      best_cosine = value;
    }
  };
  // Four candidates at a time, as four independent sums: each keeps its own
  // order, so its bits, while the four chains overlap.
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* v0 = embeddings_.VectorOf(omega_ids_[i]);
    const float* v1 = embeddings_.VectorOf(omega_ids_[i + 1]);
    const float* v2 = embeddings_.VectorOf(omega_ids_[i + 2]);
    const float* v3 = embeddings_.VectorOf(omega_ids_[i + 3]);
    double dot0 = 0.0, dot1 = 0.0, dot2 = 0.0, dot3 = 0.0;
    for (size_t c = 0; c < dim; ++c) {
      const double x = query[c];
      dot0 += x * v0[c];
      dot1 += x * v1[c];
      dot2 += x * v2[c];
      dot3 += x * v3[c];
    }
    consider(i, cosine(dot0, omega_ids_[i]));
    consider(i + 1, cosine(dot1, omega_ids_[i + 1]));
    consider(i + 2, cosine(dot2, omega_ids_[i + 2]));
    consider(i + 3, cosine(dot3, omega_ids_[i + 3]));
  }
  for (; i < n; ++i) {
    const float* v = embeddings_.VectorOf(omega_ids_[i]);
    double dot = 0.0;
    for (size_t c = 0; c < dim; ++c) dot += static_cast<double>(query[c]) * v[c];
    consider(i, cosine(dot, omega_ids_[i]));
  }
  return omega_ids_[best];
}

std::string_view QueryRewriter::RewriteView(std::string_view word) const {
  if (retrieval_vocab_.Contains(word)) return word;
  if (config_.keep_numbers && IsNumber(word)) return word;

  const text::Vocabulary& emb_vocab = embeddings_.vocabulary();
  text::WordId emb_id = emb_vocab.Lookup(word);
  if (emb_id == text::Vocabulary::kUnknown) {
    emb_id = ClosestBySpelling(word);
    if (emb_id == text::Vocabulary::kUnknown) return word;  // nothing close
    // The corrected word may already be retrievable.
    const std::string& corrected = emb_vocab.WordOf(emb_id);
    if (retrieval_vocab_.Contains(corrected)) return corrected;
  }
  // Eq. 13. The word at emb_id is outside Ω, so it is not a candidate.
  const text::WordId nearest = NearestInOmega(emb_id);
  if (nearest == text::Vocabulary::kUnknown) return word;
  return emb_vocab.WordOf(nearest);
}

std::string QueryRewriter::RewriteWord(const std::string& word) const {
  return std::string(RewriteView(word));
}

std::vector<std::string> QueryRewriter::Rewrite(
    const std::vector<std::string>& query) const {
  std::vector<std::string> rewritten;
  rewritten.reserve(query.size());
  for (const auto& word : query) rewritten.emplace_back(RewriteView(word));
  return rewritten;
}

}  // namespace ncl::linking
