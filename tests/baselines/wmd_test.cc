#include "baselines/wmd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

namespace ncl::baselines {

// Prints a WmdMethodTest parameter by name. gtest_discover_tests names each
// case by its printed parameter (Methods/WmdMethodTest.OovDropped/Relaxed);
// without a printer the name holds the enum's raw bytes. A name generator
// would not do: CMake then keeps gtest's "# GetParam() = ..." comment in
// the test name.
void PrintTo(WmdMethod method, std::ostream* os) {
  *os << (method == WmdMethod::kRelaxed ? "Relaxed" : "Sinkhorn");
}

namespace {

/// Embeddings with controlled geometry: kidney/renal close together,
/// heart/cardiac close together, the two clusters far apart.
pretrain::WordEmbeddings MakeEmbeddings() {
  text::Vocabulary vocab;
  vocab.Add("kidney");   // (0, 0)
  vocab.Add("renal");    // (0.1, 0)
  vocab.Add("disease");  // (0, 5)
  vocab.Add("heart");    // (10, 0)
  vocab.Add("cardiac");  // (10.1, 0)
  nn::Matrix vectors = nn::Matrix::FromValues(
      5, 2, {0.0f, 0.0f, 0.1f, 0.0f, 0.0f, 5.0f, 10.0f, 0.0f, 10.1f, 0.0f});
  return pretrain::WordEmbeddings(std::move(vocab), std::move(vectors));
}

class WmdMethodTest : public ::testing::TestWithParam<WmdMethod> {
 protected:
  WmdConfig Config() const {
    WmdConfig config;
    config.method = GetParam();
    config.sinkhorn_reg = 0.02;
    config.sinkhorn_iterations = 200;
    return config;
  }
};

TEST_P(WmdMethodTest, IdenticalDocumentsNearZero) {
  auto emb = MakeEmbeddings();
  double d = WordMoversDistance({"kidney", "disease"}, {"kidney", "disease"}, emb,
                                Config());
  EXPECT_NEAR(d, 0.0, 1e-6);
}

TEST_P(WmdMethodTest, SynonymSubstitutionIsCheap) {
  auto emb = MakeEmbeddings();
  double near = WordMoversDistance({"kidney", "disease"}, {"renal", "disease"}, emb,
                                   Config());
  double far = WordMoversDistance({"kidney", "disease"}, {"heart", "disease"}, emb,
                                  Config());
  EXPECT_LT(near, far);
  EXPECT_LT(near, 0.5);
}

TEST_P(WmdMethodTest, SymmetricForEqualLengths) {
  auto emb = MakeEmbeddings();
  double ab = WordMoversDistance({"kidney", "disease"}, {"cardiac", "heart"}, emb,
                                 Config());
  double ba = WordMoversDistance({"cardiac", "heart"}, {"kidney", "disease"}, emb,
                                 Config());
  EXPECT_NEAR(ab, ba, 1e-6);
}

TEST_P(WmdMethodTest, OovDropped) {
  auto emb = MakeEmbeddings();
  double with_oov = WordMoversDistance({"kidney", "zzz"}, {"kidney"}, emb, Config());
  EXPECT_NEAR(with_oov, 0.0, 1e-6);  // "zzz" dropped; kidney -> kidney
}

TEST_P(WmdMethodTest, AllOovIsInfinite) {
  auto emb = MakeEmbeddings();
  EXPECT_TRUE(std::isinf(WordMoversDistance({"zzz"}, {"kidney"}, emb, Config())));
  EXPECT_TRUE(std::isinf(WordMoversDistance({"kidney"}, {"qqq"}, emb, Config())));
}

INSTANTIATE_TEST_SUITE_P(Methods, WmdMethodTest,
                         ::testing::Values(WmdMethod::kRelaxed,
                                           WmdMethod::kSinkhorn));

TEST(WmdBoundsTest, RelaxedIsLowerBoundOfSinkhorn) {
  auto emb = MakeEmbeddings();
  WmdConfig relaxed;
  relaxed.method = WmdMethod::kRelaxed;
  WmdConfig sinkhorn;
  sinkhorn.method = WmdMethod::kSinkhorn;
  sinkhorn.sinkhorn_reg = 0.02;
  sinkhorn.sinkhorn_iterations = 300;
  std::vector<std::vector<std::string>> docs = {
      {"kidney", "disease"},
      {"renal", "heart"},
      {"cardiac", "disease", "kidney"},
      {"heart"},
  };
  for (const auto& a : docs) {
    for (const auto& b : docs) {
      double lower = WordMoversDistance(a, b, emb, relaxed);
      double upper = WordMoversDistance(a, b, emb, sinkhorn);
      EXPECT_LE(lower, upper + 0.15) << "RWMD should lower-bound WMD";
    }
  }
}

ontology::Ontology MakeOntology() {
  ontology::Ontology onto;
  auto add = [&](const char* code, std::vector<std::string> desc,
                 const char* parent) {
    auto result = onto.AddConcept(code, std::move(desc), onto.FindByCode(parent));
    EXPECT_TRUE(result.ok());
    return *result;
  };
  add("N", {"kidney", "disease"}, "ROOT");
  add("N.1", {"renal", "disease"}, "N");
  add("I", {"heart", "disease"}, "ROOT");
  add("I.1", {"cardiac", "disease"}, "I");
  return onto;
}

TEST(WmdLinkerTest, RanksSemanticallyClosestConceptFirst) {
  ontology::Ontology onto = MakeOntology();
  auto emb = MakeEmbeddings();
  WmdLinker linker(onto, emb);
  auto ranking = linker.Link({"kidney", "disease"}, 2);
  ASSERT_FALSE(ranking.empty());
  EXPECT_EQ(ranking[0].concept_id, onto.FindByCode("N.1"));
}

TEST(WmdLinkerTest, QueryWithNoKnownWordsYieldsEmpty) {
  ontology::Ontology onto = MakeOntology();
  auto emb = MakeEmbeddings();
  WmdLinker linker(onto, emb);
  EXPECT_TRUE(linker.Link({"xyz"}, 3).empty());
}

TEST(WmdLinkerTest, ScoresDescending) {
  ontology::Ontology onto = MakeOntology();
  auto emb = MakeEmbeddings();
  WmdLinker linker(onto, emb);
  auto ranking = linker.Link({"cardiac", "disease"}, 10);
  for (size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_GE(ranking[i - 1].score, ranking[i].score);
  }
}

}  // namespace
}  // namespace ncl::baselines
