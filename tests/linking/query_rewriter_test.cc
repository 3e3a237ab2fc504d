#include "linking/query_rewriter.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "text/edit_distance.h"
#include "util/random.h"
#include "util/string_util.h"

namespace ncl::linking {
namespace {

/// Ω' (embedding vocabulary) contains both KB words and clinician words;
/// geometry places "ckd" near "kidney" and "dm" near "diabetes".
pretrain::WordEmbeddings MakeEmbeddings() {
  text::Vocabulary vocab;
  vocab.Add("kidney", 10);    // 0: (1, 0)
  vocab.Add("diabetes", 10);  // 1: (0, 1)
  vocab.Add("ckd", 5);        // 2: (0.9, 0.1)
  vocab.Add("dm", 5);         // 3: (0.1, 0.9)
  vocab.Add("stage", 5);      // 4: (0.5, 0.5)
  vocab.Add("neuropathy", 4); // 5: (0.2, 0.8)
  nn::Matrix vectors = nn::Matrix::FromValues(
      6, 2,
      {1.0f, 0.0f, 0.0f, 1.0f, 0.9f, 0.1f, 0.1f, 0.9f, 0.5f, 0.5f, 0.2f, 0.8f});
  return pretrain::WordEmbeddings(std::move(vocab), std::move(vectors));
}

/// Ω (retrieval vocabulary): only the canonical KB words.
text::Vocabulary MakeRetrievalVocab() {
  text::Vocabulary vocab;
  vocab.Add("kidney");
  vocab.Add("diabetes");
  vocab.Add("stage");
  vocab.Add("neuropathy");
  return vocab;
}

TEST(QueryRewriterTest, InVocabularyWordsKept) {
  auto emb = MakeEmbeddings();
  auto retrieval = MakeRetrievalVocab();
  QueryRewriter rewriter(retrieval, emb);
  EXPECT_EQ(rewriter.RewriteWord("kidney"), "kidney");
}

TEST(QueryRewriterTest, AbbreviationMapsToNearestKbWord) {
  // §5: "dm" -> "diabetes" via the embedding space.
  auto emb = MakeEmbeddings();
  auto retrieval = MakeRetrievalVocab();
  QueryRewriter rewriter(retrieval, emb);
  EXPECT_EQ(rewriter.RewriteWord("ckd"), "kidney");
  EXPECT_EQ(rewriter.RewriteWord("dm"), "diabetes");
}

TEST(QueryRewriterTest, TypoCorrectedThenMapped) {
  // §5: "neuropaty" is a typo; edit-distance maps it into Ω' and it is
  // already an Ω word.
  auto emb = MakeEmbeddings();
  auto retrieval = MakeRetrievalVocab();
  QueryRewriter rewriter(retrieval, emb);
  EXPECT_EQ(rewriter.RewriteWord("neuropaty"), "neuropathy");
}

TEST(QueryRewriterTest, NumbersKeptVerbatim) {
  auto emb = MakeEmbeddings();
  auto retrieval = MakeRetrievalVocab();
  QueryRewriter rewriter(retrieval, emb);
  EXPECT_EQ(rewriter.RewriteWord("5"), "5");
}

TEST(QueryRewriterTest, HopelessWordKept) {
  auto emb = MakeEmbeddings();
  auto retrieval = MakeRetrievalVocab();
  QueryRewriterConfig config;
  config.max_edit_distance = 1;
  QueryRewriter rewriter(retrieval, emb, config);
  EXPECT_EQ(rewriter.RewriteWord("xylophone"), "xylophone");
}

TEST(QueryRewriterTest, FullQueryRewrite) {
  // The paper's example: "dm 1 with neuropaty" -> "diabetes 1 ... neuropathy".
  auto emb = MakeEmbeddings();
  auto retrieval = MakeRetrievalVocab();
  QueryRewriter rewriter(retrieval, emb);
  auto rewritten = rewriter.Rewrite({"dm", "1", "neuropaty"});
  EXPECT_EQ(rewritten,
            (std::vector<std::string>{"diabetes", "1", "neuropathy"}));
}

TEST(QueryRewriterTest, PreservesLength) {
  auto emb = MakeEmbeddings();
  auto retrieval = MakeRetrievalVocab();
  QueryRewriter rewriter(retrieval, emb);
  EXPECT_EQ(rewriter.Rewrite({"ckd", "dm", "kidney", "5"}).size(), 4u);
}

/// The §5 procedure written against the public API, as a brute-force
/// reference: a bounded edit-distance scan of all of Ω' for a typo (lower
/// distance, then higher count, then lower id), then
/// WordEmbeddings::Nearest filtered to Ω for Eq. 13.
std::string ReferenceRewrite(const text::Vocabulary& omega,
                             const pretrain::WordEmbeddings& embeddings,
                             const QueryRewriterConfig& config,
                             const std::string& word) {
  if (omega.Contains(word)) return word;
  if (config.keep_numbers && IsNumber(word)) return word;
  const text::Vocabulary& emb_vocab = embeddings.vocabulary();
  text::WordId emb_id = emb_vocab.Lookup(word);
  if (emb_id == text::Vocabulary::kUnknown) {
    size_t best_distance = config.max_edit_distance + 1;
    text::WordId best_id = text::Vocabulary::kUnknown;
    for (size_t i = 0; i < emb_vocab.size(); ++i) {
      const auto id = static_cast<text::WordId>(i);
      const size_t distance = text::BoundedLevenshtein(
          word, emb_vocab.WordOf(id), config.max_edit_distance);
      if (distance < best_distance ||
          (distance == best_distance && best_id != text::Vocabulary::kUnknown &&
           emb_vocab.CountOf(id) > emb_vocab.CountOf(best_id))) {
        best_distance = distance;
        best_id = id;
      }
    }
    if (best_id == text::Vocabulary::kUnknown) return word;
    emb_id = best_id;
    if (omega.Contains(emb_vocab.WordOf(emb_id))) return emb_vocab.WordOf(emb_id);
  }
  const auto nearest = embeddings.Nearest(emb_id, 1, [&](text::WordId id) {
    return omega.Contains(emb_vocab.WordOf(id));
  });
  if (nearest.empty()) return word;
  return emb_vocab.WordOf(nearest.front().first);
}

/// A seeded Ω' of 760 random words (a few over 63 bytes) with 32-wide
/// vectors and counts drawn from 1..6, so equal counts are common; Ω holds
/// 120 of them plus 8 words Ω' lacks. Some Ω words share a vector exactly,
/// and some Ω'-only words copy one of those vectors, so Eq. 13 meets exact
/// cosine ties; one Ω word and one Ω'-only word have the zero vector.
struct SyntheticTables {
  text::Vocabulary omega;
  pretrain::WordEmbeddings embeddings;
  std::vector<std::string> omega_only;  // Ω words that Ω' lacks

  SyntheticTables() {
    constexpr size_t kWords = 760;
    constexpr size_t kDim = 32;
    Rng rng(2929);
    const auto random_word = [&rng](size_t length) {
      std::string word;
      for (size_t i = 0; i < length; ++i) {
        word += static_cast<char>('a' + rng.Index(8));
      }
      return word;
    };
    std::set<std::string> seen;
    text::Vocabulary vocab;
    while (vocab.size() < kWords) {
      const size_t length = vocab.size() % 97 == 0 ? 64 + rng.Index(40)
                                                   : 3 + rng.Index(9);
      std::string word = random_word(length);
      if (!seen.insert(word).second) continue;
      vocab.Add(word, 1 + rng.Index(6));
    }
    // Ω: every 6th-ish word, 120 of them; vectors shared in pairs.
    std::vector<size_t> omega_rows;
    for (size_t i = 0; omega_rows.size() < 120; i += 1 + rng.Index(10)) {
      omega_rows.push_back(i % kWords);
      omega.Add(vocab.WordOf(static_cast<text::WordId>(i % kWords)));
    }
    nn::Matrix vectors(kWords, kDim);
    for (size_t r = 0; r < kWords; ++r) {
      for (size_t c = 0; c < kDim; ++c) {
        vectors.row_data(r)[c] = rng.UniformFloat(-1.0f, 1.0f);
      }
    }
    const auto copy_row = [&vectors](size_t to, size_t from) {
      for (size_t c = 0; c < kDim; ++c) {
        vectors.row_data(to)[c] = vectors.row_data(from)[c];
      }
    };
    for (size_t j = 0; j + 7 < omega_rows.size(); j += 7) {
      copy_row(omega_rows[j + 5], omega_rows[j]);  // two Ω words, one vector
    }
    for (size_t r = 1; r < kWords; r += 23) {
      if (!omega.Contains(vocab.WordOf(static_cast<text::WordId>(r)))) {
        copy_row(r, omega_rows[(r / 23) % omega_rows.size() / 7 * 7]);
      }
    }
    for (size_t c = 0; c < kDim; ++c) {
      vectors.row_data(omega_rows[3])[c] = 0.0f;
      vectors.row_data(2)[c] = 0.0f;
    }
    while (omega_only.size() < 8) {
      std::string word = random_word(4 + rng.Index(6));
      if (!seen.insert(word).second) continue;
      omega.Add(word);
      omega_only.push_back(word);
    }
    embeddings = pretrain::WordEmbeddings(std::move(vocab), std::move(vectors));
  }
};

/// `word` after 1-3 random single-byte edits (insert, delete, substitute).
std::string Typo(std::string word, Rng& rng) {
  const size_t edits = 1 + rng.Index(3);
  for (size_t e = 0; e < edits; ++e) {
    const char letter = static_cast<char>('a' + rng.Index(9));
    const size_t kind = rng.Index(3);
    if (kind == 0 || word.size() < 2) {
      word.insert(word.begin() + static_cast<ptrdiff_t>(rng.Index(word.size() + 1)),
                  letter);
    } else if (kind == 1) {
      word.erase(word.begin() + static_cast<ptrdiff_t>(rng.Index(word.size())));
    } else {
      word[rng.Index(word.size())] = letter;
    }
  }
  return word;
}

TEST(QueryRewriterTest, MatchesBruteForceReferenceOnSyntheticTables) {
#if defined(__ASSOCIATIVE_MATH__)
  GTEST_SKIP() << "-ffast-math build: cosine bits are the compiler's";
#endif
  const SyntheticTables tables;
  const text::Vocabulary& emb_vocab = tables.embeddings.vocabulary();
  ASSERT_GE(emb_vocab.size(), 700u);

  std::vector<std::string> words = emb_vocab.words();
  words.insert(words.end(), tables.omega.words().begin(), tables.omega.words().end());
  for (const char* number : {"0", "5", "12", "2019", "007"}) words.push_back(number);
  Rng rng(4242);
  for (size_t i = 0; i < 5200; ++i) {
    words.push_back(Typo(emb_vocab.WordOf(
                             static_cast<text::WordId>(rng.Index(emb_vocab.size()))),
                         rng));
  }
  for (const std::string& word : tables.omega_only) words.push_back(Typo(word, rng));

  QueryRewriterConfig numbers_rewritten;
  numbers_rewritten.max_edit_distance = 3;
  numbers_rewritten.keep_numbers = false;
  for (const QueryRewriterConfig& config :
       {QueryRewriterConfig{}, numbers_rewritten}) {
    const QueryRewriter rewriter(tables.omega, tables.embeddings, config);
    size_t changed = 0;
    for (const std::string& word : words) {
      const std::string want =
          ReferenceRewrite(tables.omega, tables.embeddings, config, word);
      EXPECT_EQ(rewriter.RewriteWord(word), want)
          << "word " << word << " max_edit_distance " << config.max_edit_distance;
      changed += want != word ? 1 : 0;
    }
    EXPECT_GT(changed, words.size() / 2);
    // The query form rewrites each word the same way.
    const std::vector<std::string> query(words.begin() + 700, words.begin() + 760);
    const std::vector<std::string> rewritten = rewriter.Rewrite(query);
    ASSERT_EQ(rewritten.size(), query.size());
    for (size_t i = 0; i < query.size(); ++i) {
      EXPECT_EQ(rewritten[i], rewriter.RewriteWord(query[i]));
    }
  }
}

TEST(QueryRewriterTest, CosineTieKeepsLowestOmegaId) {
  // "ckd" sits exactly between two Ω words with one vector: Eq. 13 keeps
  // the one with the lower Ω' id, whatever order Ω lists them in.
  text::Vocabulary vocab;
  vocab.Add("ckd", 5);     // 0
  vocab.Add("renal", 5);   // 1: same vector as "kidney"
  vocab.Add("kidney", 5);  // 2
  vocab.Add("liver", 5);   // 3
  nn::Matrix vectors = nn::Matrix::FromValues(
      4, 2, {1.0f, 0.2f, 1.0f, 0.0f, 1.0f, 0.0f, 0.0f, 1.0f});
  const pretrain::WordEmbeddings emb(std::move(vocab), std::move(vectors));
  text::Vocabulary omega;
  omega.Add("liver");
  omega.Add("kidney");
  omega.Add("renal");
  const QueryRewriter rewriter(omega, emb);
  EXPECT_EQ(rewriter.RewriteWord("ckd"), "renal");
}

TEST(QueryRewriterTest, TypoTieOnDistanceAndCountKeepsLowestId) {
  // "tremxr" is one edit from "tremor" and from "tremar", whose counts are
  // equal: the lower id wins. A higher count wins over a lower id.
  text::Vocabulary vocab;
  vocab.Add("tremar", 3);   // 0
  vocab.Add("tremor", 3);   // 1
  vocab.Add("spasmz", 3);   // 2
  vocab.Add("spasms", 4);   // 3
  vocab.Add("palsy", 1);    // 4
  nn::Matrix vectors = nn::Matrix::FromValues(
      5, 2, {1.0f, 0.0f, 1.0f, 0.1f, 0.0f, 1.0f, 0.1f, 1.0f, 0.5f, 0.5f});
  const pretrain::WordEmbeddings emb(std::move(vocab), std::move(vectors));
  text::Vocabulary omega;
  omega.Add("tremar");
  omega.Add("tremor");
  omega.Add("spasmz");
  omega.Add("spasms");
  const QueryRewriter rewriter(omega, emb);
  EXPECT_EQ(rewriter.RewriteWord("tremxr"), "tremar");
  EXPECT_EQ(rewriter.RewriteWord("spasmx"), "spasms");
}

}  // namespace
}  // namespace ncl::linking
