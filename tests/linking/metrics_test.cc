#include "linking/metrics.h"

#include <gtest/gtest.h>

namespace ncl::linking {
namespace {

/// A scripted linker returning a fixed ranking per first query token.
class FakeLinker : public ConceptLinker {
 public:
  explicit FakeLinker(std::map<std::string, Ranking> table)
      : table_(std::move(table)) {}
  std::string name() const override { return "fake"; }
  Ranking Link(const std::vector<std::string>& query, size_t k) const override {
    auto it = table_.find(query.empty() ? "" : query[0]);
    Ranking ranking = it == table_.end() ? Ranking{} : it->second;
    if (ranking.size() > k) ranking.resize(k);
    return ranking;
  }

 private:
  std::map<std::string, Ranking> table_;
};

TEST(MetricsTest, PerfectLinkerScoresOne) {
  FakeLinker linker({{"a", {{1, 0.9}}}, {"b", {{2, 0.9}}}});
  std::vector<EvalQuery> queries = {{{"a"}, 1}, {{"b"}, 2}};
  EvalResult result = EvaluateLinker(linker, queries, 5);
  EXPECT_DOUBLE_EQ(result.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(result.mrr, 1.0);
  EXPECT_EQ(result.num_queries, 2u);
}

TEST(MetricsTest, SecondRankGivesHalfReciprocal) {
  FakeLinker linker({{"a", {{9, 0.9}, {1, 0.5}}}});
  std::vector<EvalQuery> queries = {{{"a"}, 1}};
  EvalResult result = EvaluateLinker(linker, queries, 5);
  EXPECT_DOUBLE_EQ(result.accuracy, 0.0);
  EXPECT_DOUBLE_EQ(result.mrr, 0.5);
}

TEST(MetricsTest, MissingGoldContributesZero) {
  // §6.4: "if the actually referred concept does not appear ... we ignore
  // the corresponding 1/rank term".
  FakeLinker linker({{"a", {{9, 0.9}}}, {"b", {{2, 0.9}}}});
  std::vector<EvalQuery> queries = {{{"a"}, 1}, {{"b"}, 2}};
  EvalResult result = EvaluateLinker(linker, queries, 5);
  EXPECT_DOUBLE_EQ(result.accuracy, 0.5);
  EXPECT_DOUBLE_EQ(result.mrr, 0.5);
}

TEST(MetricsTest, KTruncationAffectsMrr) {
  FakeLinker linker({{"a", {{9, 0.9}, {8, 0.8}, {1, 0.7}}}});
  std::vector<EvalQuery> queries = {{{"a"}, 1}};
  EXPECT_DOUBLE_EQ(EvaluateLinker(linker, queries, 3).mrr, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(EvaluateLinker(linker, queries, 2).mrr, 0.0);
}

TEST(MetricsTest, EmptyQuerySetIsZero) {
  FakeLinker linker({});
  EvalResult result = EvaluateLinker(linker, {}, 5);
  EXPECT_EQ(result.num_queries, 0u);
  EXPECT_DOUBLE_EQ(result.accuracy, 0.0);
}

TEST(MetricsTest, GroupAverage) {
  FakeLinker linker({{"hit", {{1, 0.9}}}, {"miss", {}}});
  std::vector<std::vector<EvalQuery>> groups = {
      {{{"hit"}, 1}, {{"hit"}, 1}},   // accuracy 1.0
      {{{"hit"}, 1}, {{"miss"}, 1}},  // accuracy 0.5
  };
  EvalResult result = EvaluateLinkerOverGroups(linker, groups, 5);
  EXPECT_DOUBLE_EQ(result.accuracy, 0.75);
  EXPECT_EQ(result.num_queries, 4u);
}

TEST(CoverageTest, CountsGoldInTopK) {
  ontology::Ontology onto;
  auto d50 = *onto.AddConcept("D50", {"iron", "anemia"}, ontology::kRootConcept);
  auto n18 = *onto.AddConcept("N18", {"kidney", "disease"}, ontology::kRootConcept);
  CandidateGenerator generator(onto, {});
  std::vector<EvalQuery> queries = {
      {{"iron", "anemia"}, d50},
      {{"kidney"}, n18},
      {{"xylophone"}, d50},  // unretrievable
  };
  double coverage = CandidateCoverage(generator, queries, 5);
  EXPECT_NEAR(coverage, 2.0 / 3.0, 1e-9);
}

TEST(CoverageTest, LargerKNeverLowersCoverage) {
  ontology::Ontology onto;
  std::vector<ontology::ConceptId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(*onto.AddConcept(std::string("C").append(std::to_string(i)),
                                   {"shared", "word", std::to_string(i)},
                                   ontology::kRootConcept));
  }
  CandidateGenerator generator(onto, {});
  std::vector<EvalQuery> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back({{"shared", "word", std::to_string(i)}, ids[static_cast<size_t>(i)]});
  }
  double prev = 0.0;
  for (size_t k : {1u, 2u, 4u, 8u}) {
    double cov = CandidateCoverage(generator, queries, k);
    EXPECT_GE(cov, prev);
    prev = cov;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);
}

}  // namespace
}  // namespace ncl::linking
