#include "linking/candidate_generator.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace ncl::linking {
namespace {

ontology::Ontology MakeOntology() {
  ontology::Ontology onto;
  auto add = [&](const char* code, std::vector<std::string> desc,
                 const char* parent) {
    auto result = onto.AddConcept(code, std::move(desc), onto.FindByCode(parent));
    EXPECT_TRUE(result.ok());
    return *result;
  };
  add("D50", {"iron", "deficiency", "anemia"}, "ROOT");
  add("D50.0", {"iron", "deficiency", "anemia", "secondary", "to", "blood", "loss"},
      "D50");
  add("D50.9", {"iron", "deficiency", "anemia", "unspecified"}, "D50");
  add("N18", {"chronic", "kidney", "disease"}, "ROOT");
  add("N18.5", {"chronic", "kidney", "disease", "stage", "5"}, "N18");
  add("R10", {"abdominal", "pain"}, "ROOT");
  add("R10.9", {"unspecified", "abdominal", "pain"}, "R10");
  return onto;
}

TEST(CandidateGeneratorTest, ExactQueryRetrievesGoldFirst) {
  ontology::Ontology onto = MakeOntology();
  CandidateGenerator generator(onto, {});
  auto candidates = generator.TopK({"chronic", "kidney", "disease", "stage", "5"}, 3);
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates[0], onto.FindByCode("N18.5"));
}

TEST(CandidateGeneratorTest, OnlyFineGrainedConcepts) {
  ontology::Ontology onto = MakeOntology();
  CandidateGenerator generator(onto, {});
  for (auto id : generator.TopK({"anemia", "iron"}, 10)) {
    EXPECT_TRUE(onto.IsFineGrained(id));
  }
}

TEST(CandidateGeneratorTest, NoDuplicateConcepts) {
  ontology::Ontology onto = MakeOntology();
  std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>> aliases = {
      {onto.FindByCode("N18.5"), {"ckd", "5"}},
      {onto.FindByCode("N18.5"), {"kidney", "failure", "5"}},
  };
  CandidateGenerator generator(onto, aliases);
  auto candidates = generator.TopK({"kidney", "5", "ckd"}, 10);
  std::set<ontology::ConceptId> unique(candidates.begin(), candidates.end());
  EXPECT_EQ(unique.size(), candidates.size());
}

TEST(CandidateGeneratorTest, AliasIndexingRecoversAbbreviatedQueries) {
  ontology::Ontology onto = MakeOntology();
  std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>> aliases = {
      {onto.FindByCode("N18.5"), {"ckd", "5"}}};
  CandidateGenerator with_aliases(onto, aliases);
  auto hits = with_aliases.TopK({"ckd", "5"}, 5);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0], onto.FindByCode("N18.5"));

  CandidateGeneratorConfig config;
  config.index_aliases = false;
  CandidateGenerator without(onto, aliases, config);
  EXPECT_TRUE(without.TopK({"ckd"}, 5).empty());
}

TEST(CandidateGeneratorTest, KBoundsResultCount) {
  ontology::Ontology onto = MakeOntology();
  CandidateGenerator generator(onto, {});
  EXPECT_LE(generator.TopK({"anemia"}, 2).size(), 2u);
}

TEST(CandidateGeneratorTest, LargerKNeverLosesCandidates) {
  ontology::Ontology onto = MakeOntology();
  CandidateGenerator generator(onto, {});
  auto small = generator.TopK({"anemia", "pain"}, 2);
  auto large = generator.TopK({"anemia", "pain"}, 10);
  EXPECT_GE(large.size(), small.size());
  // The small result is a prefix of the large one (same ordering).
  for (size_t i = 0; i < small.size(); ++i) EXPECT_EQ(small[i], large[i]);
}

TEST(CandidateGeneratorTest, VocabularyExposesIndexedWords) {
  ontology::Ontology onto = MakeOntology();
  CandidateGenerator generator(onto, {});
  EXPECT_TRUE(generator.vocabulary().Contains("anemia"));
  EXPECT_FALSE(generator.vocabulary().Contains("ckd"));
}

// Regression for the fixed k*4 over-fetch: with many alias documents per
// concept, a fixed fetch budget collapses to fewer than k distinct concepts
// even though k are retrievable. The growing-refetch dedup must keep going.
TEST(CandidateGeneratorTest, AliasHeavyConceptsStillYieldKDistinct) {
  ontology::Ontology onto = MakeOntology();
  // Six aliases per anemia concept, all sharing the query's words: the
  // first 12 documents by score cover only 2 concepts, yet 3 concepts
  // (including R10.9 via "unspecified") match the query.
  std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>> aliases;
  for (int i = 0; i < 6; ++i) {
    aliases.emplace_back(onto.FindByCode("D50.0"),
                         std::vector<std::string>{"iron", "deficiency", "anemia",
                                                  "blood", "loss"});
    aliases.emplace_back(onto.FindByCode("D50.9"),
                         std::vector<std::string>{"iron", "deficiency", "anemia",
                                                  "unspecified"});
  }
  CandidateGenerator generator(onto, aliases);
  auto candidates = generator.TopK({"iron", "deficiency", "anemia", "unspecified"}, 3);
  std::set<ontology::ConceptId> unique(candidates.begin(), candidates.end());
  EXPECT_EQ(candidates.size(), 3u);
  EXPECT_EQ(unique.size(), 3u);
}

TEST(CandidateGeneratorTest, NgramPathMatchesExhaustiveSetsOnSmallOntology) {
  ontology::Ontology onto = MakeOntology();
  CandidateGeneratorConfig ngram_config;
  ngram_config.use_ngram_index = true;
  CandidateGenerator pruned(onto, {}, ngram_config);
  CandidateGenerator exhaustive(onto, {});
  // One index, two analyzers: tokens + 3-grams under the pruning knobs, and
  // whole tokens exhaustively.
  EXPECT_EQ(pruned.index().config().ngram_size, 3u);
  EXPECT_EQ(exhaustive.index().config().ngram_size, 0u);
  EXPECT_EQ(exhaustive.index().config().max_accumulators, 0u);
  // At corpora far below the pruning knobs, the ngram path admits every
  // matching document. Any document sharing a token with the query also
  // shares that token's grams, so with k above the match count the token
  // path's candidates are a subset of the ngram path's (grams additionally
  // cross-match near-spellings, which is the point of the analyzer) — and
  // an exact-description query scores cosine 1.0 under both, so the top
  // candidates agree. Same-analyzer pruned-vs-exhaustive set parity is
  // pinned separately in NgramIndexTest.
  const std::vector<std::vector<std::string>> queries = {
      {"iron", "deficiency", "anemia", "unspecified"},
      {"chronic", "kidney", "disease", "stage", "5"},
      {"unspecified", "abdominal", "pain"},
  };
  for (const auto& query : queries) {
    auto a = pruned.TopK(query, 10);
    auto b = exhaustive.TopK(query, 10);
    ASSERT_FALSE(a.empty());
    ASSERT_FALSE(b.empty());
    EXPECT_EQ(a[0], b[0]);
    std::set<ontology::ConceptId> ngram_set(a.begin(), a.end());
    for (ontology::ConceptId id : b) EXPECT_EQ(ngram_set.count(id), 1u);
  }
}

TEST(CandidateGeneratorTest, NgramPathRetrievesThroughTypos) {
  ontology::Ontology onto = MakeOntology();
  CandidateGeneratorConfig config;
  config.use_ngram_index = true;
  CandidateGenerator generator(onto, {}, config);
  // "anemai" shares no token with any description — only char grams. The
  // token path returns nothing for the misspelled word alone; the ngram
  // path still lands on the anemia concepts.
  auto candidates = generator.TopK({"iron", "deficiency", "anemai"}, 2);
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates[0], onto.FindByCode("D50.9"));
}

TEST(CandidateGeneratorTest, NgramPathSharesOmegaWithTokenPath) {
  ontology::Ontology onto = MakeOntology();
  std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>> aliases = {
      {onto.FindByCode("N18.5"), {"ckd", "5"}}};
  CandidateGeneratorConfig config;
  config.use_ngram_index = true;
  CandidateGenerator ngram(onto, aliases, config);
  CandidateGenerator token(onto, aliases);
  // The query rewriter's Ω must not depend on the analyzer: the same word
  // set either way, holding the indexed words and no '#'-padded gram.
  const auto& words = ngram.vocabulary().words();
  const auto& token_words = token.vocabulary().words();
  EXPECT_EQ(std::set<std::string>(words.begin(), words.end()),
            std::set<std::string>(token_words.begin(), token_words.end()));
  EXPECT_TRUE(ngram.vocabulary().Contains("anemia"));
  EXPECT_TRUE(ngram.vocabulary().Contains("ckd"));
  for (const std::string& word : words) {
    EXPECT_EQ(word.find('#'), std::string::npos) << word;
  }
}

/// TopK at a `k` far above the collection size, under both analyzers: every
/// matching concept comes back once. The query matches all four
/// fine-grained concepts, N18.5 through three documents.
void ExpectEveryMatchOnce(size_t k) {
  ontology::Ontology onto = MakeOntology();
  std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>> aliases = {
      {onto.FindByCode("N18.5"), {"ckd", "5"}},
      {onto.FindByCode("N18.5"), {"kidney", "failure", "5"}},
  };
  const std::vector<ontology::ConceptId> fine = onto.FineGrainedConcepts();
  const std::set<ontology::ConceptId> every(fine.begin(), fine.end());
  ASSERT_EQ(every.size(), 4u);
  for (bool use_ngram_index : {false, true}) {
    SCOPED_TRACE(use_ngram_index ? "ngram" : "token");
    CandidateGeneratorConfig config;
    config.use_ngram_index = use_ngram_index;
    CandidateGenerator generator(onto, aliases, config);
    auto candidates = generator.TopK({"anemia", "pain", "5"}, k);
    std::set<ontology::ConceptId> unique(candidates.begin(), candidates.end());
    EXPECT_EQ(unique.size(), candidates.size());
    EXPECT_EQ(unique, every);
  }
}

// k * 4 wraps to 0 at k = 2^62; the fetch budget must saturate at the
// collection size instead of looping on empty fetches.
TEST(CandidateGeneratorTest, OverflowingKReturnsEveryMatchOnce) {
  ExpectEveryMatchOnce(size_t{1} << 62);
}

// At k = 10^9 the selection heap must not be sized by k.
TEST(CandidateGeneratorTest, HugeKReturnsEveryMatchOnce) {
  ExpectEveryMatchOnce(1'000'000'000);
}

}  // namespace
}  // namespace ncl::linking
