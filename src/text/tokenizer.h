// Text normalisation and tokenisation.
//
// Mirrors the paper's preprocessing (§6.1 footnote 9): all words are
// lowercased, special characters (',', ';', ...) are removed, and duplicate
// snippets can be eliminated by the caller using the normalised form.

#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ncl::text {

/// \brief Lowercase and strip special characters, collapsing whitespace.
///
/// Characters other than [a-z0-9], '.', '%' and '\'' are treated as word
/// separators; '.' is kept inside tokens so that ICD-style identifiers
/// ("D50.0") and decimals survive, and '%' survives for snippets like
/// "ef 75%".
std::string Normalize(std::string_view raw);

/// \brief Normalize then split into tokens.
std::vector<std::string> Tokenize(std::string_view raw);

/// \brief Character n-grams of a token padded with `kBoundaryChar` on both
/// sides ("dm" -> "#dm", "dm#" for n = 3), the scispacy-style analyzer used
/// by the candidate-generation inverted index. Boundary padding makes word
/// starts/ends discriminative and guarantees at least one gram for tokens
/// shorter than n (a bare boundary-wrapped token for the shortest inputs).
/// `kBoundaryChar` cannot occur inside Tokenize() output, so padded grams
/// never collide with whole tokens in a shared term space. Returns {} only
/// for an empty token or n == 0.
std::vector<std::string> CharNgramsPadded(std::string_view token, size_t n);

/// Boundary marker used by CharNgramsPadded.
inline constexpr char kBoundaryChar = '#';

/// \brief Calls `fn(std::string_view gram)` for each gram CharNgramsPadded
/// returns, in the same order, as slices of one padded copy of the token:
/// a token of L bytes costs one (L + 2)-byte buffer, not a string per gram.
template <typename Fn>
void ForEachCharNgramPadded(std::string_view token, size_t n, Fn&& fn) {
  if (token.empty() || n == 0) return;
  std::string padded;
  padded.reserve(token.size() + 2);
  padded += kBoundaryChar;
  padded += token;
  padded += kBoundaryChar;
  const std::string_view view(padded);
  if (view.size() <= n) {
    fn(view);
    return;
  }
  for (size_t i = 0; i + n <= view.size(); ++i) fn(view.substr(i, n));
}

}  // namespace ncl::text
