// Query rewriting (§5, Phase I).
//
// Out-of-vocabulary query words break keyword retrieval ("dm 1 with
// neuropaty"). Each query word w not in the concept-description vocabulary
// Ω is replaced by its semantically nearest word in Ω under the pre-trained
// embedding space Ω' (Eq. 13). When w is not even in Ω' (e.g. a typo), it
// is first mapped to its textually closest word in Ω' by edit distance, and
// then Eq. 13 applies.
//
// Eq. 13 can only answer with a word of Ω, so the rewriter records the Ω'
// ids of Ω's words once, in ascending order, and scores cosines against
// those alone; it keeps the first maximum in that order. Nothing is
// precomputed per Ω' word, and a call allocates nothing but its result.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "pretrain/embeddings.h"
#include "text/vocabulary.h"

namespace ncl::linking {

/// Rewriting knobs.
struct QueryRewriterConfig {
  /// Maximum edit distance for the typo-correction fallback; words farther
  /// than this from every Ω' word are kept verbatim.
  size_t max_edit_distance = 2;
  /// Skip rewriting of pure numbers ("5" in "ckd 5").
  bool keep_numbers = true;
};

/// \brief Rewrites OOV query words into the retrieval vocabulary.
class QueryRewriter {
 public:
  /// \param retrieval_vocab Ω — the vocabulary of the candidate index.
  /// \param embeddings Ω' with vectors — the pre-training output.
  /// Both must outlive the rewriter and stay unchanged while it lives.
  QueryRewriter(const text::Vocabulary& retrieval_vocab,
                const pretrain::WordEmbeddings& embeddings,
                QueryRewriterConfig config = {});

  /// Rewritten query (same length; words are replaced in place).
  std::vector<std::string> Rewrite(const std::vector<std::string>& query) const;

  /// Rewrite a single word per the §5 procedure.
  std::string RewriteWord(const std::string& word) const;

 private:
  /// The rewrite of `word`: `word` itself or a word of Ω'.
  std::string_view RewriteView(std::string_view word) const;

  /// Typo path: the Ω' word closest to `word` within max_edit_distance
  /// (lower distance, then higher count, then lower id), or kUnknown.
  text::WordId ClosestBySpelling(std::string_view word) const;

  /// Eq. 13: the Ω word whose vector has the largest cosine with Ω' word
  /// `id`'s (the first in ascending id on a tie), or kUnknown when Ω and Ω'
  /// share no word.
  text::WordId NearestInOmega(text::WordId id) const;

  const text::Vocabulary& retrieval_vocab_;
  const pretrain::WordEmbeddings& embeddings_;
  QueryRewriterConfig config_;
  /// Ω' ids of the Ω words Ω' holds, ascending: Eq. 13's candidates.
  std::vector<text::WordId> omega_ids_;
};

}  // namespace ncl::linking
