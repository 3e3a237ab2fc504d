// The TF-IDF index of §5's Phase I: NgramIndex under the token analyzer with
// every pruning knob zeroed (ExhaustiveTokenConfig), the index
// CandidateGenerator builds when the ngram index is off.

#include "text/ngram_index.h"

#include <gtest/gtest.h>

namespace ncl::text {
namespace {

NgramIndex MakeSmallIndex() {
  NgramIndex index(ExhaustiveTokenConfig());
  index.AddDocument({"iron", "deficiency", "anemia"});                      // 0
  index.AddDocument({"protein", "deficiency", "anemia"});                   // 1
  index.AddDocument({"chronic", "kidney", "disease", "stage", "5"});        // 2
  index.AddDocument({"acute", "abdomen"});                                  // 3
  index.AddDocument({"unspecified", "abdominal", "pain"});                  // 4
  index.Finalize();
  return index;
}

TEST(TfIdfIndexTest, ExactMatchRanksFirst) {
  NgramIndex index = MakeSmallIndex();
  auto results = index.TopK({"iron", "deficiency", "anemia"}, 3);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].doc_id, 0);
  EXPECT_NEAR(results[0].score, 1.0, 1e-9);
}

TEST(TfIdfIndexTest, DiscriminativeWordBeatsCommonWord) {
  NgramIndex index = MakeSmallIndex();
  // "iron" is unique to doc 0, "anemia" shared by docs 0 and 1: doc 0 first.
  auto results = index.TopK({"iron", "anemia"}, 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].doc_id, 0);
  EXPECT_EQ(results[1].doc_id, 1);
  EXPECT_GT(results[0].score, results[1].score);
}

TEST(TfIdfIndexTest, UnknownWordsIgnored) {
  NgramIndex index = MakeSmallIndex();
  auto results = index.TopK({"zzz", "kidney"}, 5);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].doc_id, 2);
}

TEST(TfIdfIndexTest, AllUnknownYieldsEmpty) {
  NgramIndex index = MakeSmallIndex();
  EXPECT_TRUE(index.TopK({"zzz", "qqq"}, 5).empty());
}

TEST(TfIdfIndexTest, EmptyQueryYieldsEmpty) {
  NgramIndex index = MakeSmallIndex();
  EXPECT_TRUE(index.TopK({}, 5).empty());
  EXPECT_TRUE(index.TopK({"anemia"}, 0).empty());
}

TEST(TfIdfIndexTest, KLimitsResults) {
  NgramIndex index = MakeSmallIndex();
  auto results = index.TopK({"anemia", "deficiency"}, 1);
  EXPECT_EQ(results.size(), 1u);
}

TEST(TfIdfIndexTest, ScoresSortedDescending) {
  NgramIndex index = MakeSmallIndex();
  auto results = index.TopK({"anemia", "pain", "abdomen"}, 10);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].score, results[i].score);
  }
}

TEST(TfIdfIndexTest, ScoresWithinUnitInterval) {
  NgramIndex index = MakeSmallIndex();
  for (const auto& r : index.TopK({"deficiency", "anemia", "stage"}, 10)) {
    EXPECT_GT(r.score, 0.0);
    EXPECT_LE(r.score, 1.0 + 1e-9);
  }
}

TEST(TfIdfIndexTest, VocabularyHoldsIndexedWords) {
  NgramIndex index = MakeSmallIndex();
  EXPECT_TRUE(index.tokens().Contains("anemia"));
  EXPECT_TRUE(index.tokens().Contains("5"));
  EXPECT_FALSE(index.tokens().Contains("ckd"));
}

TEST(TfIdfIndexTest, NumDocuments) {
  NgramIndex index = MakeSmallIndex();
  EXPECT_EQ(index.num_documents(), 5u);
  EXPECT_TRUE(index.finalized());
}

TEST(TfIdfIndexTest, RepeatedTermRaisesTf) {
  NgramIndex index(ExhaustiveTokenConfig());
  index.AddDocument({"pain", "pain", "pain"});
  index.AddDocument({"pain", "relief", "cream"});
  index.Finalize();
  auto results = index.TopK({"pain"}, 2);
  ASSERT_EQ(results.size(), 2u);
  // Doc 0 is purely "pain": cosine 1 regardless of tf; doc 1 diluted.
  EXPECT_EQ(results[0].doc_id, 0);
  EXPECT_GT(results[0].score, results[1].score);
}

TEST(TfIdfIndexTest, KLargerThanCorpusReturnsEveryMatch) {
  NgramIndex index = MakeSmallIndex();
  // k far above both the match count and the corpus size: the bounded heap
  // must degrade to a plain full ranking, not read past the matches.
  auto results = index.TopK({"anemia", "deficiency"}, 100);
  EXPECT_EQ(results.size(), 2u);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].score, results[i].score);
  }
}

TEST(TfIdfIndexTest, DuplicateQueryTokensFoldIntoTf) {
  NgramIndex index = MakeSmallIndex();
  // Repeating a query word scales its tf, which rescales the whole query
  // vector; cosine is scale-invariant per term but the *mix* shifts toward
  // the repeated word. The ranking must stay deterministic and doc 0/1
  // (the "anemia" docs) must stay ahead of non-matches.
  auto once = index.TopK({"anemia", "kidney"}, 5);
  auto thrice = index.TopK({"anemia", "anemia", "anemia", "kidney"}, 5);
  ASSERT_FALSE(once.empty());
  ASSERT_FALSE(thrice.empty());
  // More "anemia" weight: an anemia doc leads, and repetition never
  // changes *which* documents match.
  EXPECT_TRUE(thrice[0].doc_id == 0 || thrice[0].doc_id == 1);
  EXPECT_EQ(once.size(), thrice.size());
}

TEST(TfIdfIndexTest, EqualScoresBreakTiesByAscendingDocId) {
  NgramIndex index(ExhaustiveTokenConfig());
  // Three identical documents: identical cosine for any matching query.
  index.AddDocument({"anemia", "pain"});
  index.AddDocument({"anemia", "pain"});
  index.AddDocument({"anemia", "pain"});
  index.AddDocument({"kidney", "disease"});
  index.Finalize();
  // The bounded-heap selection must pin the same order as a full stable
  // sort: score descending, doc id ascending — for every k.
  for (size_t k = 1; k <= 4; ++k) {
    auto results = index.TopK({"anemia"}, k);
    ASSERT_EQ(results.size(), std::min<size_t>(k, 3));
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].doc_id, static_cast<int32_t>(i)) << "k=" << k;
    }
  }
}

// Property: the top-1 for a full document query is that document.
class TfIdfSelfRetrieval : public ::testing::TestWithParam<int> {};

TEST_P(TfIdfSelfRetrieval, DocumentRetrievesItself) {
  NgramIndex index = MakeSmallIndex();
  std::vector<std::vector<std::string>> docs = {
      {"iron", "deficiency", "anemia"},
      {"protein", "deficiency", "anemia"},
      {"chronic", "kidney", "disease", "stage", "5"},
      {"acute", "abdomen"},
      {"unspecified", "abdominal", "pain"},
  };
  int doc = GetParam();
  auto results = index.TopK(docs[static_cast<size_t>(doc)], 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].doc_id, doc);
}

INSTANTIATE_TEST_SUITE_P(AllDocs, TfIdfSelfRetrieval, ::testing::Range(0, 5));

}  // namespace
}  // namespace ncl::text
