#include "ontology/ontology.h"

#include <gtest/gtest.h>

namespace ncl::ontology {
namespace {

/// The paper's Figure 1(b) fragment.
Ontology MakeFigure1Ontology() {
  Ontology onto;
  auto add = [&](const char* code, std::vector<std::string> desc,
                 const char* parent) {
    ConceptId pid = onto.FindByCode(parent);
    auto result = onto.AddConcept(code, std::move(desc), pid);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  };
  add("D50", {"iron", "deficiency", "anemia"}, "ROOT");
  add("D50.0", {"iron", "deficiency", "anemia", "secondary", "to", "blood", "loss"},
      "D50");
  add("D53", {"other", "nutritional", "anemias"}, "ROOT");
  add("D53.0", {"protein", "deficiency", "anemia"}, "D53");
  add("D53.2", {"scorbutic", "anemia"}, "D53");
  add("N18", {"chronic", "kidney", "disease"}, "ROOT");
  add("N18.5", {"chronic", "kidney", "disease", "stage", "5"}, "N18");
  add("N18.9", {"chronic", "kidney", "disease", "unspecified"}, "N18");
  add("R10", {"abdominal", "and", "pelvic", "pain"}, "ROOT");
  add("R10.0", {"acute", "abdomen"}, "R10");
  add("R10.9", {"unspecified", "abdominal", "pain"}, "R10");
  return onto;
}

TEST(OntologyTest, CountsExcludeVirtualRoot) {
  Ontology onto = MakeFigure1Ontology();
  EXPECT_EQ(onto.num_concepts(), 11u);
  EXPECT_EQ(onto.size(), 12u);
  EXPECT_EQ(onto.AllConcepts().size(), 11u);
}

TEST(OntologyTest, FindByCode) {
  Ontology onto = MakeFigure1Ontology();
  ConceptId id = onto.FindByCode("N18.5");
  ASSERT_NE(id, kInvalidConcept);
  EXPECT_EQ(onto.Get(id).code, "N18.5");
  EXPECT_EQ(onto.FindByCode("X99"), kInvalidConcept);
}

TEST(OntologyTest, DuplicateCodeRejected) {
  Ontology onto = MakeFigure1Ontology();
  auto result = onto.AddConcept("D50", {"dup"}, kRootConcept);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAlreadyExists);
}

TEST(OntologyTest, InvalidParentRejected) {
  Ontology onto;
  auto result = onto.AddConcept("A00", {"x"}, 99);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(OntologyTest, FineGrainedAreLeaves) {
  Ontology onto = MakeFigure1Ontology();
  auto leaves = onto.FineGrainedConcepts();
  // D50.0, D53.0, D53.2, N18.5, N18.9, R10.0, R10.9 — 7 leaves, matching
  // the paper's enumeration for this fragment.
  EXPECT_EQ(leaves.size(), 7u);
  EXPECT_TRUE(onto.IsFineGrained(onto.FindByCode("D50.0")));
  EXPECT_FALSE(onto.IsFineGrained(onto.FindByCode("D50")));
}

TEST(OntologyTest, DepthsTrackTreeLevels) {
  Ontology onto = MakeFigure1Ontology();
  EXPECT_EQ(onto.Get(kRootConcept).depth, 0);
  EXPECT_EQ(onto.Get(onto.FindByCode("D50")).depth, 1);
  EXPECT_EQ(onto.Get(onto.FindByCode("D50.0")).depth, 2);
  EXPECT_EQ(onto.max_depth(), 2);
}

TEST(OntologyTest, AncestorPathNearestFirst) {
  Ontology onto = MakeFigure1Ontology();
  auto path = onto.AncestorPath(onto.FindByCode("D50.0"));
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(onto.Get(path[0]).code, "D50");
  EXPECT_TRUE(onto.AncestorPath(onto.FindByCode("D50")).empty());
}

TEST(OntologyTest, AncestorContextBetaOne) {
  // Def. 4.1 example: beta=1 context of D50.0 is <D50>.
  Ontology onto = MakeFigure1Ontology();
  auto context = onto.AncestorContext(onto.FindByCode("D50.0"), 1);
  ASSERT_EQ(context.size(), 1u);
  EXPECT_EQ(onto.Get(context[0]).code, "D50");
}

TEST(OntologyTest, AncestorContextPadsWithFirstLevel) {
  // beta=3 for a depth-2 concept duplicates the first-level concept.
  Ontology onto = MakeFigure1Ontology();
  auto context = onto.AncestorContext(onto.FindByCode("N18.5"), 3);
  ASSERT_EQ(context.size(), 3u);
  EXPECT_EQ(onto.Get(context[0]).code, "N18");
  EXPECT_EQ(onto.Get(context[1]).code, "N18");
  EXPECT_EQ(onto.Get(context[2]).code, "N18");
}

TEST(OntologyTest, AncestorContextOfFirstLevelPadsWithItself) {
  Ontology onto = MakeFigure1Ontology();
  auto context = onto.AncestorContext(onto.FindByCode("D50"), 2);
  ASSERT_EQ(context.size(), 2u);
  EXPECT_EQ(onto.Get(context[0]).code, "D50");
  EXPECT_EQ(onto.Get(context[1]).code, "D50");
}

TEST(OntologyTest, AncestorContextBetaZeroEmpty) {
  Ontology onto = MakeFigure1Ontology();
  EXPECT_TRUE(onto.AncestorContext(onto.FindByCode("D50.0"), 0).empty());
}

TEST(OntologyTest, DeepChainContext) {
  Ontology onto;
  ConceptId parent = kRootConcept;
  for (int i = 0; i < 5; ++i) {
    auto result =
        onto.AddConcept(std::string("L").append(std::to_string(i)),
                        {"level", std::to_string(i)}, parent);
    ASSERT_TRUE(result.ok());
    parent = *result;
  }
  auto context = onto.AncestorContext(parent, 3);
  ASSERT_EQ(context.size(), 3u);
  EXPECT_EQ(onto.Get(context[0]).code, "L3");
  EXPECT_EQ(onto.Get(context[1]).code, "L2");
  EXPECT_EQ(onto.Get(context[2]).code, "L1");
}

TEST(OntologyTest, ValidatePassesOnWellFormedTree) {
  Ontology onto = MakeFigure1Ontology();
  EXPECT_TRUE(onto.Validate().ok());
}

TEST(OntologyTest, ChildrenListedUnderParent) {
  Ontology onto = MakeFigure1Ontology();
  const Concept& n18 = onto.Get(onto.FindByCode("N18"));
  EXPECT_EQ(n18.children.size(), 2u);
}

}  // namespace
}  // namespace ncl::ontology
