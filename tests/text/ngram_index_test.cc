#include "text/ngram_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/random.h"

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

NgramIndex BuildIndex(const std::vector<std::vector<std::string>>& corpus,
                      const NgramIndexConfig& config) {
  NgramIndex index(config);
  for (const auto& doc : corpus) index.AddDocument(doc);
  index.Finalize();
  return index;
}

NgramIndex MakeIndex(NgramIndexConfig config = {}) {
  return BuildIndex(SmallCorpus(), config);
}

NgramIndexConfig ExactConfig() {
  NgramIndexConfig config;
  config.max_accumulators = 0;
  config.per_term_posting_budget = 0;
  config.early_stop_epsilon = 0.0;
  return config;
}

/// Both analyzers: tokens plus their boundary-padded 3-grams, and whole
/// tokens only. Every property below holds for each.
constexpr size_t kNgramSizes[] = {3, 0};

/// `config` with the analyzer set to `ngram_size`.
NgramIndexConfig Analyzer(size_t ngram_size, NgramIndexConfig config = {}) {
  config.ngram_size = ngram_size;
  return config;
}

std::string AnalyzerName(size_t ngram_size) {
  return "ngram_size=" + std::to_string(ngram_size);
}

std::set<int32_t> DocIds(const std::vector<ScoredDoc>& docs) {
  std::set<int32_t> ids;
  for (const auto& d : docs) ids.insert(d.doc_id);
  return ids;
}

TEST(NgramIndexTest, ExactMatchRanksFirst) {
  for (size_t n : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(n));
    NgramIndex index = MakeIndex(Analyzer(n));
    auto results = index.TopK({"iron", "deficiency", "anemia"}, 3);
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results[0].doc_id, 0);
    EXPECT_NEAR(results[0].score, 1.0, 1e-6);
  }
}

TEST(NgramIndexTest, DiscriminativeWordBeatsCommonWord) {
  for (size_t n : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(n));
    NgramIndex index(Analyzer(n));
    index.AddDocument({"rare", "x1"});
    index.AddDocument({"common", "x2"});
    index.AddDocument({"common", "x3"});
    index.AddDocument({"common", "x4"});
    index.Finalize();
    // Each document matches one query word with the same tf and length, so
    // only idf separates them: the rare word's document ranks first.
    auto results = index.TopK({"rare", "common"}, 4);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].doc_id, 0);
    EXPECT_GT(results[0].score, results[1].score);
  }
}

TEST(NgramIndexTest, UnknownWordsIgnored) {
  for (size_t n : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(n));
    NgramIndex index = MakeIndex(Analyzer(n));
    // "zzz" shares no term with the collection, so it changes neither the
    // matches nor their scores.
    auto with_unknown = index.TopK({"zzz", "kidney"}, 5);
    auto alone = index.TopK({"kidney"}, 5);
    ASSERT_EQ(with_unknown.size(), 1u);
    EXPECT_EQ(with_unknown[0].doc_id, 2);
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_DOUBLE_EQ(with_unknown[0].score, alone[0].score);
  }
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
  for (size_t n : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(n));
    NgramIndex index = MakeIndex(Analyzer(n));
    // "5" is a one-character token (and, with grams, the padded "#5#").
    auto results = index.TopK({"stage", "5"}, 2);
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results[0].doc_id, 2);
  }
}

TEST(NgramIndexTest, EmptyAndUnknownQueries) {
  for (size_t n : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(n));
    NgramIndex index = MakeIndex(Analyzer(n));
    EXPECT_TRUE(index.TopK({}, 5).empty());
    EXPECT_TRUE(index.TopK({"anemia"}, 0).empty());
    // Queries sharing no term with the collection yield nothing.
    EXPECT_TRUE(index.TopK({"zzz"}, 5).empty());
    EXPECT_TRUE(index.TopK({"zzz", "qqq"}, 5).empty());
  }
}

TEST(NgramIndexTest, KLimitsResults) {
  for (size_t n : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(n));
    NgramIndex index = MakeIndex(Analyzer(n));
    EXPECT_EQ(index.TopK({"anemia", "deficiency"}, 1).size(), 1u);
    EXPECT_EQ(index.TopK({"anemia", "deficiency"}, 2).size(), 2u);
  }
}

TEST(NgramIndexTest, KLargerThanCorpusReturnsAllMatches) {
  for (size_t n : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(n));
    NgramIndex index = MakeIndex(Analyzer(n));
    // k far above both the match count and the corpus size: the bounded
    // heap degrades to a full ranking of exactly the matching documents
    // (no other document shares a term with "anemia").
    auto results = index.TopK({"anemia"}, 100);
    EXPECT_EQ(DocIds(results), (std::set<int32_t>{0, 1, 5}));
    EXPECT_EQ(results.size(), 3u);
  }
}

TEST(NgramIndexTest, ScoresSortedDescendingWithDocTieBreak) {
  for (size_t n : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(n));
    NgramIndex index = MakeIndex(Analyzer(n));
    auto results = index.TopK({"deficiency", "anemia", "stage"}, 10);
    ASSERT_FALSE(results.empty());
    for (size_t i = 0; i < results.size(); ++i) {
      // Cosine of non-negative vectors: every returned score is in (0, 1].
      EXPECT_GT(results[i].score, 0.0);
      EXPECT_LE(results[i].score, 1.0 + 1e-6);
      if (i == 0) continue;
      if (results[i - 1].score == results[i].score) {
        EXPECT_LT(results[i - 1].doc_id, results[i].doc_id);
      } else {
        EXPECT_GT(results[i - 1].score, results[i].score);
      }
    }
  }
}

TEST(NgramIndexTest, DuplicateDocumentsTieBreakByDocId) {
  for (size_t n : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(n));
    NgramIndex index(Analyzer(n));
    index.AddDocument({"abdominal", "pain"});
    index.AddDocument({"abdominal", "pain"});
    index.AddDocument({"abdominal", "pain"});
    index.AddDocument({"kidney", "disease"});
    index.Finalize();
    // The bounded-heap selection pins the order of a full stable sort —
    // score descending, doc id ascending — for every k.
    for (size_t k = 1; k <= 4; ++k) {
      auto results = index.TopK({"abdominal", "pain"}, k);
      ASSERT_EQ(results.size(), std::min<size_t>(k, 3)) << "k=" << k;
      for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].doc_id, static_cast<int32_t>(i)) << "k=" << k;
      }
      EXPECT_DOUBLE_EQ(results.front().score, results.back().score);
    }
  }
}

TEST(NgramIndexTest, RepeatedTokensRaiseTf) {
  for (size_t n : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(n));
    // Document side: doc 0 is purely "pain", so it has cosine 1 whatever
    // its tf; doc 1 is diluted by its other words.
    NgramIndex repeated(Analyzer(n));
    repeated.AddDocument({"pain", "pain", "pain"});
    repeated.AddDocument({"pain", "relief", "cream"});
    repeated.Finalize();
    auto pain = repeated.TopK({"pain"}, 2);
    ASSERT_EQ(pain.size(), 2u);
    EXPECT_EQ(pain[0].doc_id, 0);
    EXPECT_NEAR(pain[0].score, 1.0, 1e-6);
    EXPECT_GT(pain[0].score, pain[1].score);

    // Query side: repeating "anemia" shifts the query vector toward it, so
    // the anemia documents gain and the kidney document loses, while the
    // matching set stays the same.
    NgramIndex index = MakeIndex(Analyzer(n));
    auto once = index.TopK({"anemia", "kidney"}, 10);
    auto thrice = index.TopK({"anemia", "anemia", "anemia", "kidney"}, 10);
    ASSERT_EQ(DocIds(once), DocIds(thrice));
    auto score_of = [](const std::vector<ScoredDoc>& docs, int32_t id) {
      for (const ScoredDoc& d : docs) {
        if (d.doc_id == id) return d.score;
      }
      return 0.0;
    };
    EXPECT_GT(score_of(thrice, 0), score_of(once, 0));
    EXPECT_LT(score_of(thrice, 2), score_of(once, 2));
    EXPECT_TRUE(thrice[0].doc_id == 0 || thrice[0].doc_id == 1);
  }
}

TEST(NgramIndexTest, DeterministicAcrossCalls) {
  for (size_t n : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(n));
    NgramIndex index = MakeIndex(Analyzer(n));
    auto first = index.TopK({"deficiency", "anemia", "pain"}, 5);
    auto second = index.TopK({"deficiency", "anemia", "pain"}, 5);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].doc_id, second[i].doc_id);
      EXPECT_DOUBLE_EQ(first[i].score, second[i].score);
    }
  }
}

TEST(NgramIndexTest, ZeroedKnobsMatchExhaustiveExactly) {
  for (size_t n : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(n));
    NgramIndex index = MakeIndex(Analyzer(n, ExactConfig()));
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
}

TEST(NgramIndexTest, DefaultKnobsMatchExhaustiveSetsOnSmallCorpus) {
  // The pruning invariant the parity tests pin: at corpora far below the
  // accumulator/budget limits, the pruned walk admits every matching
  // document, so candidate *sets* coincide with the exhaustive reference.
  for (size_t n : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(n));
    NgramIndex index = MakeIndex(Analyzer(n));
    const auto corpus = SmallCorpus();
    for (const auto& query : corpus) {
      EXPECT_EQ(DocIds(index.TopK(query, 3)),
                DocIds(index.TopKExhaustive(query, 3)));
    }
  }
}

TEST(NgramIndexTest, MaxAccumulatorsBoundsCandidates) {
  for (size_t n : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(n));
    NgramIndexConfig config = Analyzer(n);
    config.max_accumulators = 1;
    NgramIndex index = MakeIndex(config);
    // Only one accumulator may ever be admitted, so at most one result.
    EXPECT_LE(index.TopK({"deficiency", "anemia"}, 10).size(), 1u);
  }
}

TEST(NgramIndexTest, PostingBudgetStillFindsTopDoc) {
  for (size_t n : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(n));
    NgramIndexConfig config = Analyzer(n);
    config.per_term_posting_budget = 1;
    NgramIndex index = MakeIndex(config);
    // Each term only contributes its single highest-impact posting; the
    // exact-match doc still aggregates enough terms to rank first.
    auto results = index.TopK({"chronic", "kidney", "disease", "stage", "5"}, 3);
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results[0].doc_id, 2);
  }
}

TEST(NgramIndexTest, StatsReflectCollection) {
  for (size_t n : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(n));
    NgramIndex index = MakeIndex(Analyzer(n));
    EXPECT_EQ(index.num_documents(), SmallCorpus().size());
    EXPECT_GT(index.num_terms(), 0u);
    EXPECT_GT(index.num_postings(), index.num_terms() / 2);
    EXPECT_TRUE(index.finalized());
    // The token analyzer's terms are exactly the tokens; grams add more.
    if (n == 0) {
      EXPECT_EQ(index.num_terms(), index.tokens().size());
    } else {
      EXPECT_GT(index.num_terms(), index.tokens().size());
    }
  }
}

TEST(NgramIndexTest, LargeCollectionRetrievesEveryDocument) {
  // Enough postings that Finalize sorts its lists on every core (a small
  // collection sorts on the calling thread); the TSan job runs this suite.
  Rng rng(17);
  std::vector<std::vector<std::string>> corpus;
  for (int d = 0; d < 3000; ++d) {
    std::vector<std::string> doc{"u" + std::to_string(d)};
    for (int i = 0; i < 10; ++i) doc.push_back("w" + std::to_string(rng.Index(400)));
    corpus.push_back(std::move(doc));
  }
  NgramIndex index;
  for (const auto& doc : corpus) index.AddDocument(doc);
  index.Finalize();
  ASSERT_GT(index.num_postings(), 65536u);
  // Each document's unique "u" token makes it its own best match.
  for (size_t d = 0; d < corpus.size(); d += 25) {
    auto results = index.TopK(corpus[d], 1);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].doc_id, static_cast<int32_t>(d));
  }
}

TEST(NgramIndexTest, TokensHoldIndexedWords) {
  // Every distinct document token, in first-seen order, and nothing else:
  // no unindexed word and no gram.
  std::vector<std::string> expected;
  for (const auto& doc : SmallCorpus()) {
    for (const std::string& token : doc) {
      if (std::find(expected.begin(), expected.end(), token) == expected.end()) {
        expected.push_back(token);
      }
    }
  }
  for (size_t n : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(n));
    NgramIndex index = MakeIndex(Analyzer(n));
    EXPECT_EQ(index.tokens().words(), expected);
    EXPECT_TRUE(index.tokens().Contains("anemia"));
    EXPECT_TRUE(index.tokens().Contains("5"));
    EXPECT_FALSE(index.tokens().Contains("ckd"));
    EXPECT_FALSE(index.tokens().Contains("#an"));
    EXPECT_FALSE(index.tokens().Contains("ane"));
  }
}

/// A few hundred documents over one shared vocabulary — SmallCorpus's words
/// plus generated ones — so a query matches many documents and a small k
/// sets the maxscore threshold.
std::vector<std::vector<std::string>> SharedVocabularyCorpus(size_t num_docs) {
  std::vector<std::string> words;
  for (const auto& doc : SmallCorpus()) words.insert(words.end(), doc.begin(), doc.end());
  for (int i = 0; i < 60; ++i) words.push_back("term" + std::to_string(i));
  Rng rng(23);
  std::vector<std::vector<std::string>> corpus(num_docs);
  for (auto& doc : corpus) {
    const size_t length = 3 + rng.Index(5);
    for (size_t i = 0; i < length; ++i) doc.push_back(words[rng.Index(words.size())]);
  }
  return corpus;
}

/// Queries over SharedVocabularyCorpus's words, with a typo and a word
/// neither corpus holds mixed in.
std::vector<std::vector<std::string>> SharedVocabularyQueries() {
  std::vector<std::vector<std::string>> queries = SmallCorpus();
  Rng rng(29);
  for (int q = 0; q < 30; ++q) {
    std::vector<std::string> query;
    for (size_t i = 0, n = 1 + rng.Index(4); i < n; ++i) {
      query.push_back("term" + std::to_string(rng.Index(60)));
    }
    queries.push_back(std::move(query));
  }
  queries.push_back({"anemai", "term7", "deficiency"});
  queries.push_back({"xylophone", "kidney", "term12"});
  return queries;
}

/// Every configuration the query walk serves: both analyzers, each with the
/// default pruning knobs and with all of them zeroed.
std::vector<NgramIndexConfig> AllConfigs() {
  std::vector<NgramIndexConfig> configs;
  for (size_t n : kNgramSizes) {
    configs.push_back(Analyzer(n));
    configs.push_back(Analyzer(n, ExactConfig()));
  }
  return configs;
}

std::string ConfigName(const NgramIndexConfig& config) {
  return AnalyzerName(config.ngram_size) +
         (config.max_accumulators > 0 ? " default knobs" : " zeroed knobs");
}

/// The pruned and the exhaustive result of each query, in query order.
std::vector<std::vector<ScoredDoc>> RunQueries(
    const NgramIndex& index, const std::vector<std::vector<std::string>>& queries,
    size_t k) {
  std::vector<std::vector<ScoredDoc>> results;
  for (const auto& query : queries) {
    results.push_back(index.TopK(query, k));
    results.push_back(index.TopKExhaustive(query, k));
  }
  return results;
}

/// RunQueries on a thread that has run no query before.
std::vector<std::vector<ScoredDoc>> RunQueriesOnFreshThread(
    const NgramIndex& index, const std::vector<std::vector<std::string>>& queries,
    size_t k) {
  std::vector<std::vector<ScoredDoc>> results;
  std::thread([&] { results = RunQueries(index, queries, k); }).join();
  return results;
}

/// Same doc ids and the same score bits, rank by rank.
void ExpectSameResults(const std::vector<ScoredDoc>& actual,
                       const std::vector<ScoredDoc>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].doc_id, expected[i].doc_id) << "rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(actual[i].score),
              std::bit_cast<uint64_t>(expected[i].score))
        << "rank " << i;
  }
}

TEST(NgramIndexTest, ConcurrentQueriesMatchSerial) {
  // Each thread queries through its own scratch; threads sharing one index
  // must each get the single-thread result, bit for bit.
  const auto corpus = SharedVocabularyCorpus(400);
  const auto queries = SharedVocabularyQueries();
  constexpr size_t kK = 5;
  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 3;
  for (const NgramIndexConfig& config : AllConfigs()) {
    SCOPED_TRACE(ConfigName(config));
    const NgramIndex index = BuildIndex(corpus, config);
    const auto serial = RunQueries(index, queries, kK);
    std::vector<std::vector<std::vector<ScoredDoc>>> per_thread(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t round = 0; round < kRounds; ++round) {
          auto results = RunQueries(index, queries, kK);
          per_thread[t].insert(per_thread[t].end(), results.begin(), results.end());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t t = 0; t < kThreads; ++t) {
      ASSERT_EQ(per_thread[t].size(), kRounds * serial.size());
      for (size_t i = 0; i < per_thread[t].size(); ++i) {
        SCOPED_TRACE("thread " + std::to_string(t) + " result " + std::to_string(i));
        ExpectSameResults(per_thread[t][i], serial[i % serial.size()]);
      }
    }
  }
}

TEST(NgramIndexTest, ScratchIsCleanAcrossIndexes) {
  // One thread's scratch serves every index it queries: a large index's
  // query must leave nothing behind for a small one's, and neither may an
  // empty query, a query that matches nothing, or k = 0.
  const auto queries = SharedVocabularyQueries();
  constexpr size_t kK = 5;
  for (const NgramIndexConfig& config : AllConfigs()) {
    SCOPED_TRACE(ConfigName(config));
    const NgramIndex large = BuildIndex(SharedVocabularyCorpus(400), config);
    const NgramIndex small = BuildIndex(SmallCorpus(), config);
    const auto large_expected = RunQueriesOnFreshThread(large, queries, kK);
    const auto small_expected = RunQueriesOnFreshThread(small, queries, kK);
    std::thread([&] {
      // The queries that return early or find nothing, run between the
      // large and the small index's turns.
      const auto degenerate = [&](const NgramIndex& index,
                                  const std::vector<std::string>& query) {
        EXPECT_TRUE(index.TopK({}, kK).empty());
        EXPECT_TRUE(index.TopK({"zzz", "qqq"}, kK).empty());
        EXPECT_TRUE(index.TopK(query, 0).empty());
        EXPECT_TRUE(index.TopKExhaustive(query, 0).empty());
      };
      for (size_t q = 0; q < queries.size(); ++q) {
        SCOPED_TRACE("query " + std::to_string(q));
        ExpectSameResults(large.TopK(queries[q], kK), large_expected[2 * q]);
        degenerate(small, queries[q]);
        ExpectSameResults(small.TopK(queries[q], kK), small_expected[2 * q]);
        degenerate(large, queries[q]);
        ExpectSameResults(large.TopKExhaustive(queries[q], kK),
                          large_expected[2 * q + 1]);
        degenerate(small, queries[q]);
        ExpectSameResults(small.TopKExhaustive(queries[q], kK),
                          small_expected[2 * q + 1]);
        degenerate(large, queries[q]);
      }
    }).join();
  }
}

/// Term frequencies under the analyzer's definition, written out
/// independently of the index: every token plus, when `ngram_size` is 3, its
/// '#'-padded 3-grams (the whole padded token when it is shorter than three
/// characters).
std::map<std::string, double> AnalyzerTf(const std::vector<std::string>& tokens,
                                         size_t ngram_size) {
  std::map<std::string, double> tf;
  for (const std::string& token : tokens) {
    tf[token] += 1.0;
    if (ngram_size == 0) continue;
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
  std::vector<std::vector<std::string>> queries = corpus;
  queries.push_back({"anemai", "iron"});
  queries.push_back({"iron", "iron", "deficient"});
  queries.push_back({"stage", "xylophone"});
  queries.push_back({"kidney", "anemic"});
  for (size_t ngram_size : kNgramSizes) {
    SCOPED_TRACE(AnalyzerName(ngram_size));
    NgramIndex index(Analyzer(ngram_size, ExactConfig()));
    for (const auto& doc : corpus) index.AddDocument(doc);
    index.Finalize();

    std::vector<std::map<std::string, double>> doc_tf;
    std::map<std::string, double> df;
    for (const auto& doc : corpus) {
      doc_tf.push_back(AnalyzerTf(doc, ngram_size));
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

    for (const auto& query : queries) {
      const auto q = weights(AnalyzerTf(query, ngram_size));
      std::vector<ScoredDoc> expected;
      for (size_t d = 0; d < corpus.size(); ++d) {
        double cosine = 0.0;
        for (const auto& [term, value] : weights(doc_tf[d])) {
          auto it = q.find(term);
          if (it != q.end()) cosine += it->second * value;
        }
        if (cosine > 0.0) {
          expected.push_back(ScoredDoc{static_cast<int32_t>(d), cosine});
        }
      }
      std::sort(expected.begin(), expected.end(),
                [](const ScoredDoc& a, const ScoredDoc& b) {
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
}

}  // namespace
}  // namespace ncl::text
