#include "text/ngram_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

namespace ncl::text {
namespace {

std::vector<std::vector<std::string>> SmallCorpus() {
  return {
      {"iron", "deficiency", "anemia"},                // 0
      {"protein", "deficiency", "anemia"},             // 1
      {"chronic", "kidney", "disease", "stage", "5"},  // 2
      {"acute", "abdomen"},                            // 3
      {"unspecified", "abdominal", "pain"},            // 4
      {"iron", "deficiency", "anemia", "unspecified"}, // 5
  };
}

NgramIndex MakeIndex(NgramIndexConfig config = {}) {
  NgramIndex index(config);
  for (const auto& doc : SmallCorpus()) index.AddDocument(doc);
  index.Finalize();
  return index;
}

NgramIndexConfig ExactConfig() {
  NgramIndexConfig config;
  config.max_accumulators = 0;
  config.per_term_posting_budget = 0;
  config.early_stop_epsilon = 0.0;
  return config;
}

std::set<int32_t> DocIds(const std::vector<ScoredDoc>& docs) {
  std::set<int32_t> ids;
  for (const auto& d : docs) ids.insert(d.doc_id);
  return ids;
}

TEST(NgramIndexTest, ExactMatchRanksFirst) {
  NgramIndex index = MakeIndex();
  auto results = index.TopK({"iron", "deficiency", "anemia"}, 3);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].doc_id, 0);
  EXPECT_NEAR(results[0].score, 1.0, 1e-6);
}

TEST(NgramIndexTest, SelfRetrievalAcrossCorpus) {
  NgramIndex index = MakeIndex();
  const auto corpus = SmallCorpus();
  for (size_t d = 0; d < corpus.size(); ++d) {
    auto results = index.TopK(corpus[d], 1);
    ASSERT_EQ(results.size(), 1u) << "doc " << d;
    EXPECT_EQ(results[0].doc_id, static_cast<int32_t>(d)) << "doc " << d;
  }
}

TEST(NgramIndexTest, TypoStillRetrievesViaGrams) {
  NgramIndex index = MakeIndex();
  // "anemai" is an unknown token, but shares most padded 3-grams with
  // "anemia" — the char-ngram analyzer is what makes Phase I robust to
  // typos without query rewriting.
  auto results = index.TopK({"iron", "deficiency", "anemai"}, 2);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].doc_id, 0);
}

TEST(NgramIndexTest, ShortTokensAreIndexed) {
  NgramIndex index = MakeIndex();
  // "5" only survives via boundary padding ("#5#").
  auto results = index.TopK({"stage", "5"}, 2);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].doc_id, 2);
}

TEST(NgramIndexTest, EmptyAndUnknownQueries) {
  NgramIndex index = MakeIndex();
  EXPECT_TRUE(index.TopK({}, 5).empty());
  EXPECT_TRUE(index.TopK({"anemia"}, 0).empty());
  // A query with no shared grams at all yields nothing.
  EXPECT_TRUE(index.TopK({"zzz"}, 5).empty());
}

TEST(NgramIndexTest, KLargerThanCorpusReturnsAllMatches) {
  NgramIndex index = MakeIndex();
  auto results = index.TopK({"anemia"}, 100);
  EXPECT_GE(results.size(), 3u);
  EXPECT_LE(results.size(), SmallCorpus().size());
}

TEST(NgramIndexTest, ScoresSortedDescendingWithDocTieBreak) {
  NgramIndex index = MakeIndex();
  auto results = index.TopK({"deficiency", "anemia"}, 10);
  for (size_t i = 1; i < results.size(); ++i) {
    if (results[i - 1].score == results[i].score) {
      EXPECT_LT(results[i - 1].doc_id, results[i].doc_id);
    } else {
      EXPECT_GT(results[i - 1].score, results[i].score);
    }
  }
}

TEST(NgramIndexTest, DuplicateDocumentsTieBreakByDocId) {
  NgramIndex index((NgramIndexConfig()));
  index.AddDocument({"abdominal", "pain"});
  index.AddDocument({"abdominal", "pain"});
  index.AddDocument({"abdominal", "pain"});
  index.Finalize();
  auto results = index.TopK({"abdominal", "pain"}, 3);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].doc_id, 0);
  EXPECT_EQ(results[1].doc_id, 1);
  EXPECT_EQ(results[2].doc_id, 2);
  EXPECT_DOUBLE_EQ(results[0].score, results[2].score);
}

TEST(NgramIndexTest, DeterministicAcrossCalls) {
  NgramIndex index = MakeIndex();
  auto first = index.TopK({"deficiency", "anemia", "pain"}, 5);
  auto second = index.TopK({"deficiency", "anemia", "pain"}, 5);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].doc_id, second[i].doc_id);
    EXPECT_DOUBLE_EQ(first[i].score, second[i].score);
  }
}

TEST(NgramIndexTest, ZeroedKnobsMatchExhaustiveExactly) {
  NgramIndex index = MakeIndex(ExactConfig());
  const auto corpus = SmallCorpus();
  for (const auto& query : corpus) {
    auto pruned = index.TopK(query, 4);
    auto exhaustive = index.TopKExhaustive(query, 4);
    ASSERT_EQ(pruned.size(), exhaustive.size());
    for (size_t i = 0; i < pruned.size(); ++i) {
      EXPECT_EQ(pruned[i].doc_id, exhaustive[i].doc_id);
      EXPECT_DOUBLE_EQ(pruned[i].score, exhaustive[i].score);
    }
  }
}

TEST(NgramIndexTest, DefaultKnobsMatchExhaustiveSetsOnSmallCorpus) {
  // The pruning invariant the parity tests pin: at corpora far below the
  // accumulator/budget limits, the pruned walk admits every matching
  // document, so candidate *sets* coincide with the exhaustive reference.
  NgramIndex index = MakeIndex();
  const auto corpus = SmallCorpus();
  for (const auto& query : corpus) {
    EXPECT_EQ(DocIds(index.TopK(query, 3)), DocIds(index.TopKExhaustive(query, 3)));
  }
}

TEST(NgramIndexTest, MaxAccumulatorsBoundsCandidates) {
  NgramIndexConfig config;
  config.max_accumulators = 1;
  NgramIndex index = MakeIndex(config);
  // Only one accumulator may ever be admitted, so at most one result.
  EXPECT_LE(index.TopK({"deficiency", "anemia"}, 10).size(), 1u);
}

TEST(NgramIndexTest, PostingBudgetStillFindsTopDoc) {
  NgramIndexConfig config;
  config.per_term_posting_budget = 1;
  NgramIndex index = MakeIndex(config);
  // Each term only contributes its single highest-impact posting; the
  // exact-match doc still aggregates enough terms to rank first.
  auto results = index.TopK({"chronic", "kidney", "disease", "stage", "5"}, 3);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].doc_id, 2);
}

TEST(NgramIndexTest, StatsReflectCollection) {
  NgramIndex index = MakeIndex();
  EXPECT_EQ(index.num_documents(), SmallCorpus().size());
  EXPECT_GT(index.num_terms(), 0u);
  EXPECT_GT(index.num_postings(), index.num_terms() / 2);
  EXPECT_TRUE(index.finalized());
}

TEST(NgramIndexTest, TokenlessAnalyzerStillRetrieves) {
  NgramIndexConfig config;
  config.index_tokens = false;
  NgramIndex index = MakeIndex(config);
  auto results = index.TopK({"iron", "deficiency", "anemia"}, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].doc_id, 0);
}

/// Term frequencies under the analyzer's definition, written out
/// independently of the index: every token plus its '#'-padded 3-grams (the
/// whole padded token when it is shorter than three characters).
std::map<std::string, double> AnalyzerTf(const std::vector<std::string>& tokens) {
  std::map<std::string, double> tf;
  for (const std::string& token : tokens) {
    tf[token] += 1.0;
    const std::string padded = "#" + token + "#";
    if (padded.size() <= 3) {
      tf[padded] += 1.0;
      continue;
    }
    for (size_t i = 0; i + 3 <= padded.size(); ++i) tf[padded.substr(i, 3)] += 1.0;
  }
  return tf;
}

TEST(NgramIndexTest, ExhaustiveScoresMatchBruteForceCosine) {
  // Tokens repeat within documents ("anemia anemia", "stage ... stage") and
  // across them, and distinct tokens share grams ("iron"/"ironic",
  // "anemia"/"anemic", "deficiency"/"deficient"), so every term's tf, df
  // and id assignment is exercised. The reference is the plain cosine of
  // smoothed-idf tf-idf vectors: idf = log((N+1)/(df+1)) + 1, both sides
  // L2-normalised, query terms absent from the index ignored.
  const std::vector<std::vector<std::string>> corpus = {
      {"anemia", "anemia", "iron"},
      {"iron", "deficiency", "anemia"},
      {"ironic", "iron", "anemic"},
      {"stage", "5", "stage"},
      {"kidney", "disease", "stage", "5"},
      {"deficiency", "deficient", "iron", "iron"},
      {"acute", "anemic", "kidney", "injury"},
  };
  NgramIndex index(ExactConfig());
  for (const auto& doc : corpus) index.AddDocument(doc);
  index.Finalize();

  std::vector<std::map<std::string, double>> doc_tf;
  std::map<std::string, double> df;
  for (const auto& doc : corpus) {
    doc_tf.push_back(AnalyzerTf(doc));
    for (const auto& [term, tf] : doc_tf.back()) df[term] += 1.0;
  }
  const double n = static_cast<double>(corpus.size());
  auto idf = [&](const std::string& term) {
    return std::log((n + 1.0) / (df.at(term) + 1.0)) + 1.0;
  };
  auto weights = [&](const std::map<std::string, double>& tf) {
    std::map<std::string, double> w;
    double norm = 0.0;
    for (const auto& [term, count] : tf) {
      if (!df.contains(term)) continue;
      w[term] = count * idf(term);
      norm += w[term] * w[term];
    }
    for (auto& [term, value] : w) value /= std::sqrt(norm);
    return w;
  };

  std::vector<std::vector<std::string>> queries = corpus;
  queries.push_back({"anemai", "iron"});
  queries.push_back({"iron", "iron", "deficient"});
  queries.push_back({"stage", "xylophone"});
  queries.push_back({"kidney", "anemic"});
  for (const auto& query : queries) {
    const auto q = weights(AnalyzerTf(query));
    std::vector<ScoredDoc> expected;
    for (size_t d = 0; d < corpus.size(); ++d) {
      double cosine = 0.0;
      for (const auto& [term, value] : weights(doc_tf[d])) {
        auto it = q.find(term);
        if (it != q.end()) cosine += it->second * value;
      }
      if (cosine > 0.0) expected.push_back(ScoredDoc{static_cast<int32_t>(d), cosine});
    }
    std::sort(expected.begin(), expected.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.doc_id < b.doc_id;
    });

    const auto actual = index.TopKExhaustive(query, corpus.size());
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].doc_id, expected[i].doc_id) << "rank " << i;
      EXPECT_NEAR(actual[i].score, expected[i].score, 1e-6) << "rank " << i;
    }
  }
}

}  // namespace
}  // namespace ncl::text
