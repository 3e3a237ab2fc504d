#include "comaid/model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/tape.h"

namespace ncl::comaid {
namespace {

/// Tiny two-branch ontology shared by the model tests.
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
  add("N18", {"chronic", "kidney", "disease"}, "ROOT");
  add("N18.5", {"chronic", "kidney", "disease", "stage", "5"}, "N18");
  return onto;
}

ComAidConfig SmallConfig() {
  ComAidConfig config;
  config.dim = 12;
  config.beta = 1;
  config.seed = 3;
  return config;
}

TEST(VariantNameTest, AllFourVariants) {
  ComAidConfig c;
  EXPECT_EQ(VariantName(c), "COM-AID");
  c.structural_attention = false;
  EXPECT_EQ(VariantName(c), "COM-AID-c");
  c.structural_attention = true;
  c.text_attention = false;
  EXPECT_EQ(VariantName(c), "COM-AID-w");
  c.structural_attention = false;
  EXPECT_EQ(VariantName(c), "COM-AID-wc");
}

TEST(ComAidModelTest, VocabularyIncludesSpecialsAndWords) {
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {{"ckd", "5"}});
  EXPECT_TRUE(model.vocabulary().Contains(ComAidModel::kBos));
  EXPECT_TRUE(model.vocabulary().Contains(ComAidModel::kEos));
  EXPECT_TRUE(model.vocabulary().Contains(ComAidModel::kUnk));
  EXPECT_TRUE(model.vocabulary().Contains("anemia"));
  EXPECT_TRUE(model.vocabulary().Contains("ckd"));  // from extra snippets
}

TEST(ComAidModelTest, MapTokensUsesUnkForOov) {
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});
  auto ids = model.MapTokens({"anemia", "xylophone"});
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_NE(ids[0], model.unk_id());
  EXPECT_EQ(ids[1], model.unk_id());
}

TEST(ComAidModelTest, ScoreIsNegativeLogProb) {
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});
  double score = model.ScoreLogProb(onto.FindByCode("D50.0"), {"anemia"});
  EXPECT_LT(score, 0.0);  // log-probability of a non-trivial snippet
  EXPECT_TRUE(std::isfinite(score));
}

TEST(ComAidModelTest, ScoreDeterministic) {
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});
  auto c = onto.FindByCode("N18.5");
  EXPECT_EQ(model.ScoreLogProb(c, {"ckd", "5"}), model.ScoreLogProb(c, {"ckd", "5"}));
}

TEST(ComAidModelTest, LongerQueriesScoreLower) {
  // Each extra word multiplies in another probability factor.
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});
  auto c = onto.FindByCode("D50.0");
  double short_q = model.ScoreLogProb(c, {"anemia"});
  double long_q = model.ScoreLogProb(c, {"anemia", "blood", "loss", "chronic"});
  EXPECT_GT(short_q, long_q);
}

TEST(ComAidModelTest, EncodeConceptShapeAndDeterminism) {
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});
  nn::Matrix repr = model.EncodeConcept(onto.FindByCode("D50"));
  EXPECT_EQ(repr.rows(), 12u);
  EXPECT_EQ(repr.cols(), 1u);
  nn::Matrix again = model.EncodeConcept(onto.FindByCode("D50"));
  for (size_t i = 0; i < repr.size(); ++i) EXPECT_EQ(repr[i], again[i]);
}

TEST(ComAidModelTest, DifferentConceptsDifferentRepresentations) {
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});
  nn::Matrix a = model.EncodeConcept(onto.FindByCode("D50"));
  nn::Matrix b = model.EncodeConcept(onto.FindByCode("N18"));
  double diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) diff += std::abs(a[i] - b[i]);
  EXPECT_GT(diff, 1e-5);
}

TEST(ComAidModelTest, InitializeEmbeddingsCopiesMatchingRows) {
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});
  text::Vocabulary vocab;
  vocab.Add("anemia");
  vocab.Add("notinmodel");
  nn::Matrix vectors(2, 12, 0.5f);
  pretrain::WordEmbeddings emb(std::move(vocab), std::move(vectors));
  size_t copied = model.InitializeEmbeddings(emb);
  EXPECT_EQ(copied, 1u);
  text::WordId id = model.vocabulary().Lookup("anemia");
  nn::Matrix v = model.WordVector(id);
  for (size_t i = 0; i < v.size(); ++i) EXPECT_FLOAT_EQ(v[i], 0.5f);
}

TEST(ComAidModelTest, AblationChangesCompositeWidth) {
  ontology::Ontology onto = MakeOntology();
  ComAidConfig full = SmallConfig();
  ComAidConfig bare = SmallConfig();
  bare.text_attention = false;
  bare.structural_attention = false;
  ComAidModel model_full(full, &onto, {});
  ComAidModel model_bare(bare, &onto, {});
  EXPECT_EQ(model_full.params()->Find("W_d")->value.cols(), 36u);  // 3d
  EXPECT_EQ(model_bare.params()->Find("W_d")->value.cols(), 12u);  // d
}

TEST(ComAidModelTest, AllVariantsScoreFinite) {
  ontology::Ontology onto = MakeOntology();
  for (bool text : {true, false}) {
    for (bool structural : {true, false}) {
      ComAidConfig config = SmallConfig();
      config.text_attention = text;
      config.structural_attention = structural;
      ComAidModel model(config, &onto, {});
      double score = model.ScoreLogProb(onto.FindByCode("N18.5"), {"ckd", "5"});
      EXPECT_TRUE(std::isfinite(score)) << VariantName(config);
    }
  }
}

TEST(ComAidModelTest, EmptyQueryScoresEosOnly) {
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});
  double score = model.ScoreLogProb(onto.FindByCode("D50.0"), {});
  EXPECT_LT(score, 0.0);
  EXPECT_TRUE(std::isfinite(score));
  // One factor only: must beat any non-empty decode of the same words.
  double longer = model.ScoreLogProb(onto.FindByCode("D50.0"), {"anemia"});
  EXPECT_GT(score, longer - 1e-9);
}

TEST(ComAidModelTest, GradientsFlowThroughFullModel) {
  // Finite-difference spot check through encoder + duet decoder (Eqs. 2-10).
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});
  auto target = model.MapTokens({"anemia", "blood"});
  auto concept_id = onto.FindByCode("D50.0");

  auto build = [&](nn::Tape& tape) {
    return model.BuildExampleLoss(tape, concept_id, target);
  };
  for (const char* name : {"encoder.W_i", "decoder.U_o", "W_d", "W_s", "b_d"}) {
    nn::Parameter* p = model.params()->Find(name);
    ASSERT_NE(p, nullptr) << name;
    model.params()->ZeroGrads();
    nn::Tape tape;
    tape.Backward(build(tape));
    nn::Matrix analytic = p->grad;

    const float eps = 1e-2f;
    for (size_t i = 0; i < std::min<size_t>(p->value.size(), 4); ++i) {
      float saved = p->value[i];
      p->value[i] = saved + eps;
      nn::Tape plus;
      float f_plus = plus.Value(build(plus))[0];
      p->value[i] = saved - eps;
      nn::Tape minus;
      float f_minus = minus.Value(build(minus))[0];
      p->value[i] = saved;
      float numeric = (f_plus - f_minus) / (2 * eps);
      EXPECT_NEAR(analytic[i], numeric, 5e-2 * std::max(1.0f, std::abs(numeric)))
          << name << "[" << i << "]";
    }
  }
}

TEST(ComAidModelTest, StructuralVariantEncodesAncestors) {
  // With beta=2 and structural attention on, the ancestors' words influence
  // the score; with it off they cannot.
  ontology::Ontology onto = MakeOntology();
  ComAidConfig with = SmallConfig();
  with.beta = 2;
  ComAidModel model(with, &onto, {});
  // Just assert the forward pass works for a concept whose ancestor path is
  // shorter than beta (padding path).
  double score = model.ScoreLogProb(onto.FindByCode("D50.0"), {"anemia"});
  EXPECT_TRUE(std::isfinite(score));
}

TEST(ComAidModelTest, StructuralAttentionRequiresPositiveBeta) {
  // β = 0 would leave the structural attention nothing to attend over, so
  // the composite vector would not match W_d; the constructor refuses it.
  ontology::Ontology onto = MakeOntology();
  ComAidConfig config = SmallConfig();
  config.beta = 0;
  EXPECT_DEATH(ComAidModel(config, &onto, {}), "Def. 4.1");
  // Without structural attention β is unused, and 0 stays legal.
  config.structural_attention = false;
  ComAidModel model(config, &onto, {});
  EXPECT_TRUE(std::isfinite(model.ScoreLogProb(onto.FindByCode("D50.0"),
                                               {"anemia"})));
}

}  // namespace
}  // namespace ncl::comaid
