#include "pretrain/cbow.h"

#include <gtest/gtest.h>

#include "pretrain/concept_injection.h"

namespace ncl::pretrain {
namespace {

/// A corpus with two clearly separated topics: words within a topic
/// co-occur, words across topics never do.
std::vector<std::vector<std::string>> TwoTopicCorpus(size_t repeats) {
  std::vector<std::vector<std::string>> corpus;
  for (size_t i = 0; i < repeats; ++i) {
    corpus.push_back({"kidney", "renal", "dialysis", "nephron"});
    corpus.push_back({"renal", "kidney", "nephron", "dialysis"});
    corpus.push_back({"heart", "cardiac", "valve", "aorta"});
    corpus.push_back({"cardiac", "heart", "aorta", "valve"});
  }
  return corpus;
}

CbowConfig SmallConfig() {
  CbowConfig config;
  config.dim = 16;
  config.window = 4;
  // Few epochs: prolonged training on this tiny closed vocabulary overfits
  // and can invert similarities (no such regime exists on real corpora).
  config.negatives = 2;
  config.epochs = 5;
  config.seed = 7;
  return config;
}

TEST(CbowTest, VocabularyCoversCorpus) {
  WordEmbeddings emb = TrainCbow(TwoTopicCorpus(5), SmallConfig());
  EXPECT_EQ(emb.size(), 8u);
  EXPECT_EQ(emb.dim(), 16u);
  EXPECT_TRUE(emb.vocabulary().Contains("kidney"));
  EXPECT_TRUE(emb.vocabulary().Contains("aorta"));
}

TEST(CbowTest, CooccurringWordsAreCloserThanCrossTopic) {
  WordEmbeddings emb = TrainCbow(TwoTopicCorpus(30), SmallConfig());
  auto id = [&](const char* w) { return emb.vocabulary().Lookup(w); };
  double same_topic = emb.Cosine(id("kidney"), id("renal"));
  double cross_topic = emb.Cosine(id("kidney"), id("cardiac"));
  EXPECT_GT(same_topic, cross_topic);
}

TEST(CbowTest, NearestNeighbourIsTopicMate) {
  WordEmbeddings emb = TrainCbow(TwoTopicCorpus(30), SmallConfig());
  auto id = [&](const char* w) { return emb.vocabulary().Lookup(w); };
  auto nearest = emb.Nearest(id("heart"), 1);
  ASSERT_EQ(nearest.size(), 1u);
  std::string w = emb.vocabulary().WordOf(nearest[0].first);
  EXPECT_TRUE(w == "cardiac" || w == "valve" || w == "aorta") << w;
}

TEST(CbowTest, DeterministicWithOneThread) {
  auto run = [] {
    WordEmbeddings emb = TrainCbow(TwoTopicCorpus(5), SmallConfig());
    return emb.vectors()(0, 0);
  };
  EXPECT_EQ(run(), run());
}

TEST(CbowTest, MinCountPrunesRareWords) {
  auto corpus = TwoTopicCorpus(5);
  corpus.push_back({"hapax"});
  CbowConfig config = SmallConfig();
  config.min_count = 2;
  WordEmbeddings emb = TrainCbow(corpus, config);
  EXPECT_FALSE(emb.vocabulary().Contains("hapax"));
}

TEST(CbowTest, EmptyCorpusYieldsEmptyEmbeddings) {
  WordEmbeddings emb = TrainCbow({}, SmallConfig());
  EXPECT_EQ(emb.size(), 0u);
}

TEST(CbowTest, ConceptInjectionSeparatesSiblingDiscriminators) {
  // The §4.2 motivating case: "protein/iron/folate deficiency anemia" under
  // plain CBOW share contexts; with injected cids their contexts diverge.
  std::vector<std::vector<std::string>> plain;
  for (int i = 0; i < 40; ++i) {
    plain.push_back({"protein", "deficiency", "anemia"});
    plain.push_back({"iron", "deficiency", "anemia"});
    plain.push_back({"folate", "deficiency", "anemia"});
  }
  std::vector<std::vector<std::string>> injected;
  for (int i = 0; i < 40; ++i) {
    injected.push_back(InjectConceptId({"protein", "deficiency", "anemia"}, "D53.0"));
    injected.push_back(InjectConceptId({"iron", "deficiency", "anemia"}, "D50.0"));
    injected.push_back(InjectConceptId({"folate", "deficiency", "anemia"}, "D52.0"));
  }
  CbowConfig config = SmallConfig();
  config.epochs = 10;
  WordEmbeddings emb_plain = TrainCbow(plain, config);
  WordEmbeddings emb_injected = TrainCbow(injected, config);

  auto cosine = [](const WordEmbeddings& emb, const char* a, const char* b) {
    return emb.Cosine(emb.vocabulary().Lookup(a), emb.vocabulary().Lookup(b));
  };
  double plain_sim = cosine(emb_plain, "protein", "iron");
  double injected_sim = cosine(emb_injected, "protein", "iron");
  EXPECT_LT(injected_sim, plain_sim);
}

}  // namespace
}  // namespace ncl::pretrain
